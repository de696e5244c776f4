// detlint fixture: rule D3 (Rng streams copied instead of forked).
//
// Copies replay the parent's draw sequence; substreams must come from
// Rng::fork(label). Deliberately NOT compiled; the local Rng and SplitMixRng
// stand in for bgpcmp's two engines so the fixture is self-contained.
#include <cstdint>

namespace fixture {

class SplitMixRng {
 public:
  explicit SplitMixRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t below(std::uint64_t n) { return ++state_ % n; }

 private:
  std::uint64_t state_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  Rng fork(const char* label) const {
    (void)label;
    return Rng{state_ + 1};
  }
  SplitMixRng fork_splitmix(const char* label) const {
    (void)label;
    return SplitMixRng{state_ + 2};
  }
  std::uint64_t next() { return ++state_; }

 private:
  std::uint64_t state_;
};

std::uint64_t draws_by_value(Rng rng) {  // expect: D3
  return rng.next();
}

std::uint64_t draws_by_ref(Rng& rng) { return rng.next(); }

std::uint64_t draws_two(Rng& a, Rng rng_b) {  // expect: D3
  return a.next() + rng_b.next();
}

std::uint64_t study(Rng& parent) {
  Rng base = parent.fork("study");
  Rng copied = base;  // expect: D3
  Rng braced{base};  // expect: D3
  auto deduced = base;  // expect: D3
  Rng forked = base.fork("sub");
  Rng seeded{42};
  auto& alias = base;
  Rng replayed = base;  // lint:allow(D3): paired-seed A/B replay on purpose
  return copied.next() + braced.next() + deduced.next() + forked.next() +
         seeded.next() + alias.next() + replayed.next();
}

// The SplitMix engine is a stream like any other: copies replay it too.
std::uint64_t ci_by_value(SplitMixRng ci) {  // expect: D3
  return ci.below(10);
}

std::uint64_t ci_by_ref(SplitMixRng& ci) { return ci.below(10); }

std::uint64_t ci_study(const Rng& parent) {
  SplitMixRng ci = parent.fork_splitmix("ci");
  SplitMixRng copied = ci;  // expect: D3
  SplitMixRng braced{ci};  // expect: D3
  auto deduced = ci;  // expect: D3
  SplitMixRng other = parent.fork_splitmix("ci-other");
  SplitMixRng seeded{42};
  return copied.below(3) + braced.below(3) + deduced.below(3) + other.below(3) +
         seeded.below(3) + ci_by_ref(ci);
}

}  // namespace fixture

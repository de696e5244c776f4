// Incremental 64-bit FNV-1a: the one hasher behind the tree's fingerprints,
// config digests and RNG fork labels. Typed fields fold in as fixed-width
// little-endian bytes, so a hash does not depend on the host's layout or
// byte order. (topo::snapshot_hash folds whole u64 lanes instead; that
// variant is part of the snapshot wire format and stays separate.)
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace bgpcmp {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  Fnv1a() = default;
  /// Start from `state` instead of the offset basis (Rng::fork starts from
  /// kOffset ^ parent seed).
  explicit Fnv1a(std::uint64_t state) : h_(state) {}

  void bytes(std::string_view data) {
    for (const char c : data) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length first, so adjacent strings cannot trade bytes.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }
  void boolean(bool v) { byte(v ? 1 : 0); }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }

  std::uint64_t h_ = kOffset;
};

}  // namespace bgpcmp

// Deterministic random-number generation for the simulation.
//
// Every stochastic component takes an Rng (or a seed) explicitly; there is no
// global generator. Substreams are derived with fork(), so adding a new
// consumer of randomness never perturbs the draws of existing ones — a
// property the reproduction benches rely on (same seed => same figure).
//
// Two engines live here. Rng wraps mt19937_64 and carries every sampler the
// model draws from: topology, clients, demand and session sampling. Those
// streams keep mt19937_64 because switching them would move every recorded
// world and client byte for no measured gain. SplitMixRng is the engine of
// the bootstrap CI streams, which only draw bounded indices: its state is
// one word, so a stream per <pair, window> costs one seed derivation, and a
// draw costs a few multiplies instead of a Mersenne-Twister step plus a
// distribution.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp {

/// SplitMix64 (Steele, Lea and Flood; the output function of Vigna's
/// reference `splitmix64.c`) with unbiased bounded draws by Lemire's
/// multiply-shift method, rejection step included. Streams come from
/// Rng::fork_splitmix(label); copying one replays its draws, like Rng.
class SplitMixRng {
 public:
  explicit SplitMixRng(std::uint64_t seed) : state_(seed) {}

  /// The next raw 64-bit output: Vigna's `next()`, bit for bit.
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, n), without modulo bias. The high word of
  /// next() * n is the draw; a low word below 2^64 mod n marks one of the
  /// surplus products and is redrawn. Requires n > 0.
  std::uint64_t below(std::uint64_t n) {
    BGPCMP_CHECK_GT(n, 0, "cannot draw below an empty bound");
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) [[unlikely]] {
      const std::uint64_t surplus = (std::uint64_t{0} - n) % n;
      while (low < surplus) {
        m = static_cast<unsigned __int128>(next()) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Deterministic RNG with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derive an independent child stream keyed by a label, without advancing
  /// this stream. Same (seed, label) always yields the same child.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// The same derivation, into a SplitMixRng: the child draws from the seed
  /// fork(label) would get, without building an mt19937_64 for it.
  [[nodiscard]] SplitMixRng fork_splitmix(std::string_view label) const;

  /// The seed this stream was constructed from.
  [[nodiscard]] std::uint64_t base_seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Exponential with given mean (not rate).
  double exponential(double mean);
  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed volumes).
  double pareto(double x_m, double alpha);

  /// Pick a uniformly random index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Pick an index with probability proportional to weights[i]. Weights must
  /// be non-negative with a positive sum.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_ = 0;
  std::mt19937_64 engine_;
};

/// Zipf sampler over ranks 1..n with exponent s, via precomputed CDF and
/// binary search. Used for traffic volume across client prefixes ("a small
/// number of prefixes carry most bytes").
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Sample a 0-based rank (0 is the most popular).
  std::size_t sample(Rng& rng) const;

  /// Probability mass of 0-based rank r.
  [[nodiscard]] double pmf(std::size_t rank) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace bgpcmp

#pragma once
// Deterministic pseudo-random number generation for the whole QOC stack.
//
// Everything stochastic in this repository -- shot sampling, dataset
// generation, pruning-mask sampling, parameter initialisation -- draws from a qoc::Prng seeded explicitly by the caller.
// This makes every experiment in bench/ reproducible bit-for-bit.

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace qoc {

/// SplitMix64: used to expand a single user seed into independent streams.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 -- fast, high-quality generator (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator concept so it can drive
/// std::*_distribution when convenient.
class Prng {
 public:
  using result_type = std::uint64_t;

  explicit Prng(std::uint64_t seed = 0x5EEDB06A5EEDB06AULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> mantissa; exact, branch-free.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Unbiased via rejection (Lemire-style).
  std::uint64_t uniform_int(std::uint64_t n) {
    if (n == 0) return 0;
    const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    has_spare_ = true;
    return u * m;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Derive an independent child stream (e.g. one per worker thread)
  /// without correlating with the parent sequence.
  Prng split() {
    SplitMix64 sm((*this)() ^ 0xA5A5A5A5A5A5A5A5ULL);
    Prng child(0);
    for (auto& s : child.s_) s = sm.next();
    return child;
  }

  /// Sample an index from an (unnormalised, non-negative) weight vector.
  /// Returns weights.size() only if all weights are zero.
  std::size_t categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights.size();
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u < 0.0) return i;
    }
    return weights.size() - 1;  // numeric slack
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace qoc

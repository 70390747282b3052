#pragma once
// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in ncast draws from an explicitly seeded Rng so
// that each experiment is reproducible bit-for-bit. The generator is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64 so that small or
// correlated seeds still yield well-mixed state.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ncast {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be handed
/// to <random> facilities, but the member helpers below are preferred since
/// they are stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; distinct seeds give independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from `seed` via splitmix64.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // splitmix64 step
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's nearly-divisionless method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::below: bound must be > 0");
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::between: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponentially distributed value with the given rate (for Poisson
  /// processes). Requires rate > 0.
  double exponential(double rate) {
    if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
    double u;
    do {
      u = uniform();
    } while (u == 0.0);
    return -std::log(u) / rate;
  }

  /// Fisher–Yates shuffle of the whole container.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `count` distinct values uniformly from [0, population), in
  /// selection order (not sorted). Requires count <= population.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t population,
                                                        std::uint32_t count) {
    std::vector<std::uint32_t> chosen;
    sample_without_replacement(population, count, chosen);
    return chosen;
  }

  /// The same draw into `chosen`, replacing its contents: a caller that
  /// keeps the buffer allocates only when `count` outgrows its capacity.
  void sample_without_replacement(std::uint32_t population, std::uint32_t count,
                                  std::vector<std::uint32_t>& chosen) {
    if (count > population) {
      throw std::invalid_argument("Rng::sample_without_replacement: count > population");
    }
    // Floyd's algorithm: O(count) expected memory and time.
    chosen.clear();
    chosen.reserve(count);
    for (std::uint32_t j = population - count; j < population; ++j) {
      auto t = static_cast<std::uint32_t>(below(j + 1));
      bool seen = false;
      for (std::uint32_t c : chosen) {
        if (c == t) {
          seen = true;
          break;
        }
      }
      chosen.push_back(seen ? j : t);
    }
  }

  /// Derives an independent child generator; useful for giving each simulated
  /// entity its own stream without coupling their consumption patterns.
  Rng split() { return Rng((*this)() ^ 0xa02bdbf7bb3c0a7ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace ncast

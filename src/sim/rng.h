// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256++ seeded through splitmix64. One Rng instance per simulation;
// child streams (Fork) let subsystems draw independently without coupling
// their consumption order to each other, which keeps experiments reproducible
// when one subsystem changes.
#ifndef MFC_SRC_SIM_RNG_H_
#define MFC_SRC_SIM_RNG_H_

#include <array>
#include <cstdint>

namespace mfc {

// The standard SplitMix64 finalizer (public domain, Steele et al.): mixes
// x + 0x9e3779b97f4a7c15. It seeds Rng and derives survey site seeds.
uint64_t SplitMix64(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Bernoulli trial.
  bool Chance(double p);

  // Derives an independent child stream. Deterministic: the i-th Fork of a
  // given Rng state is always the same stream.
  Rng Fork();

  // Fisher-Yates shuffle of [first, last).
  template <typename It>
  void Shuffle(It first, It last) {
    auto n = static_cast<uint64_t>(last - first);
    for (uint64_t i = n; i > 1; --i) {
      uint64_t j = NextBelow(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

 private:
  std::array<uint64_t, 4> state_;
};

}  // namespace mfc

#endif  // MFC_SRC_SIM_RNG_H_

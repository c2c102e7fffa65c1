#include "src/sim/rng.h"

namespace mfc {
namespace {

constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  // The splitmix64 generator's first four outputs: word i is
  // SplitMix64(seed + i * gamma).
  for (auto& word : state_) {
    word = SplitMix64(seed);
    seed += kGoldenGamma;
  }
}

uint64_t Rng::NextU64() {
  // xoshiro256++
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBelow(uint64_t n) {
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = (-n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
}

bool Rng::Chance(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace mfc

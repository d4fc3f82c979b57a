#include "sim/rng.h"

#include <cmath>
#include <numbers>

namespace analock::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

namespace {
[[nodiscard]] std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_material_(seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng Rng::fork(std::string_view domain, std::uint64_t index) const {
  std::uint64_t mix = seed_material_ ^ hash64(domain);
  mix ^= 0x2545f4914f6cdd1dULL * (index + 1);
  std::uint64_t s = mix;
  return Rng{splitmix64(s)};
}

std::uint64_t Rng::next_u64() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_below(std::uint64_t n) {
  // Debiased modulo via rejection sampling.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

void Rng::skip_gaussians(std::uint64_t count) {
  if (count == 0) return;
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    --count;
  }
  for (; count >= 2; count -= 2) {
    while (uniform() <= 0.0) {
    }
    (void)next_u64();  // u2
  }
  if (count == 1) (void)gaussian();
}

double Rng::gaussian(double mean, double sigma) {
  return mean + sigma * gaussian();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace analock::sim

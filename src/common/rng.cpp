#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lp {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
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
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LP_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LP_CHECK(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = Rng::max() - Rng::max() % range;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  LP_CHECK(mean > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ull); }

DurationNs jittered(DurationNs base, double frac, Rng& rng, double scale) {
  const double jitter = std::max(0.2, 1.0 + frac * rng.normal());
  return std::max<DurationNs>(
      1, static_cast<DurationNs>(static_cast<double>(base) * scale * jitter));
}

}  // namespace lp

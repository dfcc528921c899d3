#include "simkit/random.hpp"

#include <bitset>
#include <cmath>
#include <cstddef>

#include "simkit/assert.hpp"

namespace das::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

using State = std::array<std::uint64_t, 4>;

/// The xoshiro256 state transition (without the ** output scrambler).
void step(State& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

// The transition T is linear over GF(2)^256, so n steps are p(T) with
// p = x^n mod P, P being T's characteristic polynomial (degree 256 and
// primitive: the generator has full period 2^256 - 1). P is found once, by
// Berlekamp-Massey on the sequence of one state bit; a long discard then
// applies the precomputed powers x^(2^k) mod P, one per set bit of n.

/// Polynomial over GF(2) of degree < 256; bit i holds the x^i coefficient.
using Poly = std::array<std::uint64_t, 4>;

bool coefficient(const Poly& p, std::size_t i) {
  return ((p[i / 64] >> (i % 64)) & 1U) != 0;
}

void add(Poly& acc, const Poly& p) {
  for (std::size_t w = 0; w < 4; ++w) acc[w] ^= p[w];
}

/// x * p mod P, with `low` = P - x^256.
Poly times_x(Poly p, const Poly& low) {
  const bool carry = (p[3] >> 63) != 0;
  for (std::size_t w = 3; w > 0; --w) p[w] = p[w] << 1 | p[w - 1] >> 63;
  p[0] <<= 1;
  if (carry) add(p, low);
  return p;
}

Poly times_mod(const Poly& a, Poly b, const Poly& low) {
  Poly acc{};
  for (std::size_t i = 0; i < 256; ++i) {
    if (coefficient(a, i)) add(acc, b);
    b = times_x(b, low);
  }
  return acc;
}

/// Replace `s` by p(T) s: the state advanced by the steps `p` encodes.
void jump(const Poly& p, State& s) {
  State acc{};
  for (std::size_t i = 0; i < 256; ++i) {
    if (coefficient(p, i)) add(acc, s);
    step(s);
  }
  s = acc;
}

/// x^(2^k) mod P for k = 0..63.
const std::array<Poly, 64>& jump_powers() {
  static const std::array<Poly, 64> powers = [] {
    constexpr std::size_t kBits = 512;  // twice the degree of P
    std::bitset<kBits> seq;
    State s{1, 2, 3, 4};  // any state but all-zero
    for (std::size_t t = 0; t < kBits; ++t) {
      seq[t] = (s[0] & 1U) != 0;
      step(s);
    }
    // Berlekamp-Massey: c is the shortest recurrence generating seq,
    // seq[n] = sum of c[i] * seq[n - i] for i = 1..len.
    std::bitset<kBits> c, b;
    c[0] = b[0] = true;
    std::size_t len = 0, m = 1;
    for (std::size_t n = 0; n < kBits; ++n) {
      bool discrepancy = seq[n];
      for (std::size_t i = 1; i <= len; ++i) {
        discrepancy = discrepancy != (c[i] && seq[n - i]);
      }
      if (!discrepancy) {
        ++m;
        continue;
      }
      const std::bitset<kBits> previous = c;
      c ^= b << m;
      if (2 * len <= n) {
        len = n + 1 - len;
        b = previous;
        m = 1;
      } else {
        ++m;
      }
    }
    DAS_REQUIRE(len == 256);
    // P(x) = x^256 c(1/x): its x^k coefficient is c[256 - k].
    Poly low{};
    for (std::size_t k = 0; k < 256; ++k) {
      if (c[256 - k]) low[k / 64] |= std::uint64_t{1} << (k % 64);
    }
    std::array<Poly, 64> table{};
    table[0] = Poly{2, 0, 0, 0};  // x
    for (std::size_t k = 1; k < 64; ++k) {
      table[k] = times_mod(table[k - 1], table[k - 1], low);
    }
    return table;
  }();
  return powers;
}

// FNV-1a over the substream name, mixed into the fork seed.
std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
}

Rng Rng::fork(std::string_view name) const {
  std::uint64_t seed = state_[0] ^ rotl(state_[2], 17) ^ hash_name(name);
  std::array<std::uint64_t, 4> st{};
  for (auto& s : st) s = splitmix64(seed);
  return Rng(st);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  step(state_);
  return result;
}

void Rng::discard(std::uint64_t n) {
  // A jump costs about 512 steps, so only bits worth 1024 or more jump.
  constexpr std::size_t kFirstJumpBit = 10;
  for (std::size_t k = kFirstJumpBit; k < 64; ++k) {
    if (((n >> k) & 1U) != 0) jump(jump_powers()[k], state_);
  }
  for (n &= (std::uint64_t{1} << kFirstJumpBit) - 1; n > 0; --n) step(state_);
}

double Rng::next_double() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DAS_REQUIRE(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform_real(double lo, double hi) {
  DAS_REQUIRE(lo < hi);
  return lo + (hi - lo) * next_double();
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  DAS_REQUIRE(p >= 0.0 && p <= 1.0);
  return next_double() < p;
}

}  // namespace das::sim

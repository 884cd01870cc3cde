// Deterministic pseudo-random number generation (splitmix64).
//
// Used to fill message payloads in tests and in the `_mb` microbenchmark
// variants that rewrite the buffer before every call (paper §V-A). A fixed,
// tiny generator keeps payload generation reproducible and dependency-free.
//
// Every payload generator and checker derives from one word function
// (DESIGN.md § Host data plane): bytes 8k..8k+7 of fill_pattern(seed) are
// splitmix_word(seed, k) in little-endian order, and element k of
// fill_operands(seed) is operand(seed, k), cut from the same word. This
// header is the only place in src/ that spells out the mixer's multipliers
// (scripts/lint_flags.sh enforces it); the bulk fills in prng.cpp name them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xhc::util {

/// splitmix64's state increment (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64's two output multipliers.
inline constexpr std::uint64_t kSplitMixMul1 = 0xbf58476d1ce4e5b9ull;
inline constexpr std::uint64_t kSplitMixMul2 = 0x94d049bb133111ebull;

/// splitmix64's output function applied to state `z`.
constexpr std::uint64_t splitmix_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * kSplitMixMul1;
  z = (z ^ (z >> 27)) * kSplitMixMul2;
  return z ^ (z >> 31);
}

/// Word k of the stream seeded with `seed`, i.e. the (k+1)-th
/// SplitMix64(seed).next(), in O(1): the state after k+1 steps is
/// seed + (k+1) * gamma.
constexpr std::uint64_t splitmix_word(std::uint64_t seed,
                                      std::uint64_t k) noexcept {
  return splitmix_mix(seed + kSplitMixGamma * (k + 1));
}

/// splitmix64 — a high-quality 64-bit mixer; passes BigCrush as a stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    return splitmix_mix(state_ += kSplitMixGamma);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Fills `bytes` of memory with a deterministic pattern derived from `seed`:
/// bytes 8k..8k+7 are splitmix_word(seed, k) in little-endian order, and a
/// trailing partial word keeps its low bytes. Fills of at least
/// kVectorFillMin bytes write every whole 64-byte block with one 8-lane
/// mixer step when the host has AVX-512F/DQ (chosen once at run time); the
/// bytes are those of fill_pattern_scalar either way.
void fill_pattern(void* dst, std::size_t bytes, std::uint64_t seed) noexcept;

/// The one-word-per-step reference fill_pattern is checked against. It
/// also writes the tail, small fills, and every fill on hosts without
/// AVX-512: one 8-byte store per whole word on little-endian hosts, a byte
/// loop for the tail and on big-endian hosts.
void fill_pattern_scalar(void* dst, std::size_t bytes,
                         std::uint64_t seed) noexcept;

/// Smallest fill (in bytes) that takes the vector kernels; the
/// latency-path fills (a few KiB at most) stay on the scalar loop.
inline constexpr std::size_t kVectorFillMin = std::size_t{16} << 10;

/// Element k of the bounded operand family: an exact multiple of 1/256 in
/// [-1, 1), cut from splitmix_word(seed, k). Bounded exact operands keep a
/// float sum well-conditioned, so a double-precision reference is
/// insensitive to summation order and a deviation beyond a small tolerance
/// is payload corruption, not reassociation.
constexpr float operand(std::uint64_t seed, std::size_t k) noexcept {
  return static_cast<float>(static_cast<int>(splitmix_word(seed, k) & 511u) -
                            256) *
         (1.0f / 256.0f);
}

/// dst[k] = operand(seed, k) for every k < count. Takes the vector kernel
/// under the same rule as fill_pattern (count * sizeof(float) at least
/// kVectorFillMin, AVX-512F/DQ host); the values are those of
/// fill_operands_scalar either way.
void fill_operands(float* dst, std::size_t count, std::uint64_t seed) noexcept;

/// The one-operand-per-step reference fill_operands is checked against.
void fill_operands_scalar(float* dst, std::size_t count,
                          std::uint64_t seed) noexcept;

}  // namespace xhc::util

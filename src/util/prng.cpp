// Bulk payload fills: the scalar references and the 8-lane AVX-512 kernels
// (DESIGN.md § Host data plane).
//
// A fill of at least kVectorFillMin bytes on a host with AVX-512F/DQ writes
// each whole 64-byte block with one 8-lane step of the splitmix64 output
// function, which needs AVX-512DQ's 64-bit lane multiply. The kernels are
// written with GCC vector extensions (intrinsics such as
// _mm512_srli_epi64 trip -Wmaybe-uninitialized in GCC 12) and compiled for
// that ISA through a function target attribute, so the rest of the library
// keeps the baseline ISA and the kernel is picked once at run time. Lane j
// of a step computes exactly the scalar word splitmix_word(seed, k + j), so
// the output is byte-identical to the scalar reference on every path;
// tests/test_util.cpp checks it against both the reference and an oracle.
#include "util/prng.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define XHC_PRNG_AVX512 1
#endif

namespace xhc::util {

namespace {

/// Words k, k+1, … of the stream written over `bytes` bytes at `p` (word k
/// at p[0]): the scalar loop every path uses for what the kernels leave.
void fill_words_scalar(unsigned char* p, std::size_t bytes, std::uint64_t seed,
                       std::uint64_t k) noexcept {
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= bytes; i += 8, ++k) {
      const std::uint64_t v = splitmix_word(seed, k);
      std::memcpy(p + i, &v, sizeof v);
    }
  }
  // Byte loop: the tail, and every word on big-endian hosts.
  for (; i < bytes; ++k) {
    const std::uint64_t v = splitmix_word(seed, k);
    for (std::size_t b = 0; b < 8 && i < bytes; ++b, ++i) {
      p[i] = static_cast<unsigned char>(v >> (8 * b));
    }
  }
}

/// dst[i] = operand(seed, k + i) for every i < count.
void fill_operands_from(float* dst, std::size_t count, std::uint64_t seed,
                        std::uint64_t k) noexcept {
  for (std::size_t i = 0; i < count; ++i) dst[i] = operand(seed, k + i);
}

#if XHC_PRNG_AVX512

using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using I32x8 = std::int32_t __attribute__((vector_size(32)));
using F32x8 = float __attribute__((vector_size(32)));

/// Lane-wise splitmix_mix.
[[gnu::target("avx512f,avx512dq")]] inline U64x8 mix_lanes(U64x8 z) noexcept {
  z = (z ^ (z >> 30)) * kSplitMixMul1;
  z = (z ^ (z >> 27)) * kSplitMixMul2;
  return z ^ (z >> 31);
}

/// States of words 0..7 of the stream: seed + (j + 1) * gamma in lane j.
[[gnu::target("avx512f,avx512dq")]] inline U64x8 first_states(
    std::uint64_t seed) noexcept {
  const U64x8 lane = {1, 2, 3, 4, 5, 6, 7, 8};
  return seed + lane * kSplitMixGamma;
}

/// Words 0 .. 8 * blocks - 1 of the stream into `blocks` 64-byte blocks at
/// `p`; one mixer step per block.
[[gnu::target("avx512f,avx512dq")]] void fill_pattern_avx512(
    unsigned char* p, std::size_t blocks, std::uint64_t seed) noexcept {
  U64x8 state = first_states(seed);
  for (std::size_t b = 0; b < blocks; ++b) {
    const U64x8 w = mix_lanes(state);
    std::memcpy(p + 64 * b, &w, sizeof w);
    state += 8 * kSplitMixGamma;
  }
}

/// Operands 0 .. 16 * blocks - 1 into `blocks` 64-byte blocks at `dst`; two
/// mixer steps per block, one per 8 operands.
[[gnu::target("avx512f,avx512dq")]] void fill_operands_avx512(
    float* dst, std::size_t blocks, std::uint64_t seed) noexcept {
  U64x8 state = first_states(seed);
  for (std::size_t i = 0; i < 16 * blocks; i += 8) {
    // Same arithmetic as operand(): low 9 bits, minus 256, times 1/256;
    // every intermediate is exact.
    const I32x8 low = __builtin_convertvector(mix_lanes(state) & 511u, I32x8);
    const F32x8 v = __builtin_convertvector(low - 256, F32x8) * (1.0f / 256.0f);
    std::memcpy(dst + i, &v, sizeof v);
    state += 8 * kSplitMixGamma;
  }
}

bool have_avx512() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
  }();
  return yes;
}

#endif  // XHC_PRNG_AVX512

}  // namespace

void fill_pattern_scalar(void* dst, std::size_t bytes,
                         std::uint64_t seed) noexcept {
  fill_words_scalar(static_cast<unsigned char*>(dst), bytes, seed, 0);
}

void fill_pattern(void* dst, std::size_t bytes, std::uint64_t seed) noexcept {
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t done = 0;
#if XHC_PRNG_AVX512
  if (bytes >= kVectorFillMin && have_avx512()) {
    done = bytes / 64 * 64;
    fill_pattern_avx512(p, done / 64, seed);
  }
#endif
  fill_words_scalar(p + done, bytes - done, seed, done / 8);
}

void fill_operands_scalar(float* dst, std::size_t count,
                          std::uint64_t seed) noexcept {
  fill_operands_from(dst, count, seed, 0);
}

void fill_operands(float* dst, std::size_t count, std::uint64_t seed) noexcept {
  std::size_t done = 0;
#if XHC_PRNG_AVX512
  if (count * sizeof(float) >= kVectorFillMin && have_avx512()) {
    done = count / 16 * 16;
    fill_operands_avx512(dst, done / 16, seed);
  }
#endif
  fill_operands_from(dst + done, count - done, seed, done);
}

}  // namespace xhc::util

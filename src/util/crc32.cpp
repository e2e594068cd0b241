#include "src/util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace lfs {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE 802.3

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; bit++) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

enum class Kernel { kTable, kFold128, kFold512 };

#if defined(__x86_64__)
// Carry-less folding for the same reflected polynomial as the table (Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel 2009). A 128-bit lane moves forward by D bits onto the
// data there when its low half is multiplied by x^(D+32) mod P and its high
// half by x^(D-32) mod P, each bit-reflected and shifted left by one.

// Folds the 16-byte blocks of [p, p + n) into `acc`, which holds the input
// before p, by 128 bits each (k3, k4); then takes the 128-bit remainder to
// 64 bits (k4, k5) and to 32 bits by Barrett reduction (P', mu). Inlined,
// so that the 512-bit fold runs it VEX-encoded.
__attribute__((target("pclmul,sse4.1"), always_inline))
inline uint32_t FoldTail(__m128i acc, const uint8_t* p, size_t n) {
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  for (; n >= 16; p += 16, n -= 16) {
    __m128i lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
    __m128i hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
    acc = _mm_xor_si128(_mm_xor_si128(lo, hi),
                        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  // 128 -> 64 bits, then 64 -> 32 bits of remainder still to reduce.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00));
  // Barrett: q = floor(r * mu), then r ^= q * P' leaves the CRC in bits 32-63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}

// Folds `n` bytes (a multiple of 16, at least 64) into the running state.
// Four 128-bit lanes each absorb one 16-byte block per 64-byte step (k1, k2:
// 512 bits), then collapse into one (k3, k4: 128 bits).
__attribute__((target("pclmul,sse4.1")))
uint32_t Crc32Fold(uint32_t state, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  // The lane loops are unrolled so the lanes stay in registers; GCC at -O2
  // otherwise keeps them in memory and the fold runs ~1.7x slower.
  __m128i lane[4] = {load(p), load(p + 16), load(p + 32), load(p + 48)};
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(state)));
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
#pragma GCC unroll 4
    for (int i = 0; i < 4; i++) {
      __m128i lo = _mm_clmulepi64_si128(lane[i], k1k2, 0x00);
      __m128i hi = _mm_clmulepi64_si128(lane[i], k1k2, 0x11);
      lane[i] = _mm_xor_si128(_mm_xor_si128(lo, hi), load(p + 16 * i));
    }
  }
  __m128i acc = lane[0];
#pragma GCC unroll 3
  for (int i = 1; i < 4; i++) {
    __m128i lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
    __m128i hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
    acc = _mm_xor_si128(_mm_xor_si128(lo, hi), lane[i]);
  }
  return FoldTail(acc, p, n);
}

// One 512-bit step: each of the four lanes of `acc` moves forward by the
// distance `k` encodes onto the matching lane of `data`.
__attribute__((target("avx512f,vpclmulqdq"), always_inline))
inline __m512i Fold4(__m512i acc, __m512i k, __m512i data) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11), data, 0x96);
}

// The same fold, four lanes to a register, for `n` bytes (a multiple of 16,
// at least 256). Four registers absorb 256 bytes per step (2048 bits), collapse
// into one by 512-bit folds, which also take the remaining 64-byte blocks,
// and its lanes 0-2 fold onto lane 3 (384, 256 and 128 bits).
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1")))
uint32_t Crc32FoldWide(uint32_t state, const uint8_t* p, size_t n) {
  const __m512i k2048 = _mm512_set_epi64(0x1322d1430, 0x11542778a, 0x1322d1430, 0x11542778a,
                                         0x1322d1430, 0x11542778a, 0x1322d1430, 0x11542778a);
  const __m512i k512 = _mm512_set_epi64(0x1c6e41596, 0x154442bd4, 0x1c6e41596, 0x154442bd4,
                                        0x1c6e41596, 0x154442bd4, 0x1c6e41596, 0x154442bd4);
  // Lane 3 stays where it is: its zero constant drops it from the products.
  const __m512i klanes = _mm512_set_epi64(0, 0, 0x0ccaa009e, 0x1751997d0, 0x15a546366,
                                          0xf1da05aa, 0x174359406, 0x3db1ecdc);
  __m512i z0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_maskz_set1_epi32(1, static_cast<int>(state)));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    z0 = Fold4(z0, k2048, _mm512_loadu_si512(p));
    z1 = Fold4(z1, k2048, _mm512_loadu_si512(p + 64));
    z2 = Fold4(z2, k2048, _mm512_loadu_si512(p + 128));
    z3 = Fold4(z3, k2048, _mm512_loadu_si512(p + 192));
  }
  __m512i acc = Fold4(Fold4(Fold4(z0, k512, z1), k512, z2), k512, z3);
  for (; n >= 64; p += 64, n -= 64) {
    acc = Fold4(acc, k512, _mm512_loadu_si512(p));
  }
  __m512i moved = _mm512_xor_si512(_mm512_clmulepi64_epi128(acc, klanes, 0x00),
                                   _mm512_clmulepi64_epi128(acc, klanes, 0x11));
  // Masked extracts: the plain ones (and the cast) pass GCC 12 an undefined
  // source operand, which it warns about under -Wall.
  __m128i x = _mm_xor_si128(
      _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(15, moved, 0),
                    _mm512_maskz_extracti32x4_epi32(15, moved, 1)),
      _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(15, moved, 2),
                    _mm512_maskz_extracti32x4_epi32(15, acc, 3)));
  return FoldTail(x, p, n);
}

// The 512-bit fold needs AVX-512F and VPCLMULQDQ from the CPU and, from the
// OS, saved opmask and ZMM state (XCR0 bits 1, 2 and 5-7); the 128-bit fold
// needs PCLMULQDQ and SSE4.1.
Kernel ChooseKernel() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_PCLMUL) || !(c & bit_SSE4_1)) {
    return Kernel::kTable;
  }
  bool os_saves_zmm = false;
  if (c & bit_OSXSAVE) {
    unsigned xcr0 = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
    os_saves_zmm = (xcr0 & 0xE6) == 0xE6;
  }
  if (os_saves_zmm && __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_AVX512F) &&
      (c & bit_VPCLMULQDQ)) {
    return Kernel::kFold512;
  }
  return Kernel::kFold128;
}
#else
Kernel ChooseKernel() { return Kernel::kTable; }
#endif

Kernel ActiveKernel() {
  static const Kernel kernel = ChooseKernel();
  return kernel;
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

// Inputs of 256 bytes or more fold their longest multiple-of-16 prefix 512
// bits at a time on CPUs with VPCLMULQDQ; inputs of 64 bytes or more fold
// it 128 bits at a time on CPUs with PCLMULQDQ. The table loop takes the
// rest, shorter inputs, and every other CPU. All compute the same CRC.
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
#if defined(__x86_64__)
  size_t folded = data.size() & ~size_t{15};
  Kernel kernel = ActiveKernel();
  if (kernel == Kernel::kFold512 && folded >= 256) {
    state = Crc32FoldWide(state, data.data(), folded);
    data = data.subspan(folded);
  } else if (kernel != Kernel::kTable && folded >= 64) {
    state = Crc32Fold(state, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  const auto& table = Table();
  for (uint8_t byte : data) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finish(Crc32Update(Crc32Init(), data));
}

const char* Crc32KernelName() {
  switch (ActiveKernel()) {
    case Kernel::kFold512:
      return "vpclmulqdq-512";
    case Kernel::kFold128:
      return "pclmulqdq-128";
    case Kernel::kTable:
      break;
  }
  return "table";
}

}  // namespace lfs

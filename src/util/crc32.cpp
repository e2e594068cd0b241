#include "src/util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
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

#if defined(__x86_64__)
// Folds `n` bytes (a multiple of 16, at least 64) into the running state
// with carry-less multiplies, for the same reflected polynomial as the table
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel 2009). Four 128-bit lanes each absorb one
// 16-byte block per 64-byte step; x^k mod P constants move a lane forward
// by 512 bits (k1, k2) or 128 bits (k3, k4). The lanes then collapse into
// one, the remaining 16-byte blocks fold in, and the 128-bit remainder goes
// to 64 bits (k4, k5) and to 32 bits by Barrett reduction (P', mu).
__attribute__((target("pclmul,sse4.1")))
uint32_t Crc32Fold(uint32_t state, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
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
  for (; n >= 16; p += 16, n -= 16) {
    __m128i lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
    __m128i hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
    acc = _mm_xor_si128(_mm_xor_si128(lo, hi), load(p));
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

bool HaveClmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return have;
}
#endif

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

// Inputs of 64 bytes or more fold their longest multiple-of-16 prefix by
// carry-less multiplication when the CPU has PCLMULQDQ; the table loop takes
// the rest, shorter inputs, and every other CPU. Both compute the same CRC.
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
#if defined(__x86_64__)
  if (data.size() >= 64 && HaveClmul()) {
    size_t folded = data.size() & ~size_t{15};
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

}  // namespace lfs

#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define DTIO_CRC32_FOLDING 1
#include <immintrin.h>
#endif

namespace dtio {
namespace {

// The kernels below run on the raw register (the CRC before its final
// inversion): crc32(data, seed) = ~kernel(~seed, data).

// kTables[0] is the classic byte table; kTables[k][b] advances kTables[k-1][b]
// by one more zero byte, so one 16-byte step looks up each byte in the table
// for its distance from the end of the block.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Looks up the four bytes of little-endian word w in tables t, t-1, t-2, t-3.
std::uint32_t lookup4(std::size_t t, std::uint32_t w) noexcept {
  return kTables[t][w & 0xFFU] ^ kTables[t - 1][(w >> 8) & 0xFFU] ^
         kTables[t - 2][(w >> 16) & 0xFFU] ^ kTables[t - 3][w >> 24];
}

std::uint32_t slice16(std::uint32_t c, const std::uint8_t* p,
                      std::size_t n) noexcept {
  for (; n >= 16; p += 16, n -= 16) {
    c = lookup4(15, c ^ load_le32(p)) ^ lookup4(11, load_le32(p + 4)) ^
        lookup4(7, load_le32(p + 8)) ^ lookup4(3, load_le32(p + 12));
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c;
}

#ifdef DTIO_CRC32_FOLDING

// Folding constants for the reflected polynomial (Gopal et al., "Fast CRC
// computation for generic polynomials using PCLMULQDQ", Intel 2009; the same
// values zlib and Chromium use): powers of x mod P for the 512-bit (k1, k2) and
// 128-bit (k3, k4) folding distances, k5 for 64 -> 32 bits, and the Barrett
// pair (P', mu).
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kPoly = 0x01db710641, kMu = 0x01f7011641;

// Multiplies x's two halves by k's and sums: x advanced by k's distance.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                              __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_fold(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  // Four 128-bit lanes, each folded 64 bytes forward per step.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k12), load(p));
    x1 = _mm_xor_si128(fold(x1, k12), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k12), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k12), load(p + 48));
  }

  // Fold the lanes into one, then the remaining 16-byte blocks into it.
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i x = _mm_xor_si128(fold(x0, k34), x1);
  x = _mm_xor_si128(fold(x, k34), x2);
  x = _mm_xor_si128(fold(x, k34), x3);
  for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(fold(x, k34), load(p));

  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k34, 0x10));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                           _mm_set_epi64x(0, kK5), 0x00),
      _mm_srli_si128(x, 4));

  // Barrett reduction 64 -> 32 bits.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool detect_folding() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

bool detect_folding() noexcept { return false; }

#endif

// Resolved during static initialisation. A crc32() call from another
// translation unit's initialiser that runs first sees false and takes the
// portable kernel, which gives the same result.
const bool kFolding = detect_folding();

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::span<const std::uint8_t> data,
                             std::uint32_t seed) noexcept {
  return ~slice16(~seed, data.data(), data.size());
}

std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef DTIO_CRC32_FOLDING
  if (n >= 64) {
    const std::size_t body = n & ~std::size_t{15};
    c = clmul_fold(c, p, body);
    p += body;
    n -= body;
  }
#endif
  return ~slice16(c, p, n);
}

bool crc32_folding_available() noexcept { return kFolding; }

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  return kFolding ? detail::crc32_folded(data, seed)
                  : detail::crc32_portable(data, seed);
}

}  // namespace dtio

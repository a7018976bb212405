#include "common/crc32.h"

#include <bit>
#include <cstddef>
#include <cstring>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define ORDMA_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace ordma {
namespace {

// The tables are computed at compile time (constexpr), so there is no init
// ordering, no runtime generation, and the 8 KiB lands in .rodata shared
// across threads (read-only: no false sharing).
struct Crc32Tables {
  std::uint32_t t[8][256];
};

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
    }
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int s = 1; s < 8; ++s) {
      tb.t[s][i] = (tb.t[s - 1][i] >> 8) ^ tb.t[0][tb.t[s - 1][i] & 0xff];
    }
  }
  return tb;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

#ifdef ORDMA_CRC32_CLMUL

// Shortest span the folding kernel takes: its four lanes start full.
constexpr std::size_t kFoldMin = 64;

// Folding constants for P(x) = 0x104C11DB7 in the bit-reflected domain:
// each k is (x^e mod P) bit-reflected over 32 bits and shifted left one,
// which lines the product up with the reflected 64-bit lanes.
//   k1 = e 4*128+32, k2 = e 4*128-32   fold a lane forward 512 bits
//   k3 = e 128+32,   k4 = e 128-32     fold a lane forward 128 bits
//   k5 = e 64                          fold 96 bits down to 64
// Barrett reduction uses mu = floor(x^64 / P) and P itself, both
// bit-reflected over 33 bits.
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

#define ORDMA_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

ORDMA_CLMUL_TARGET inline __m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies each 64-bit half of `x` by its constant in `k` and adds the
// products: `x` moved forward by the distance `k` encodes.
ORDMA_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Register update over n bytes, n >= kFoldMin and a multiple of 16.
ORDMA_CLMUL_TARGET std::uint32_t crc32_fold_clmul(std::uint32_t crc,
                                                  const std::byte* p,
                                                  std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);

  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = _mm_xor_si128(fold(x0, k1k2), load16(p));
    x1 = _mm_xor_si128(fold(x1, k1k2), load16(p + 16));
    x2 = _mm_xor_si128(fold(x2, k1k2), load16(p + 32));
    x3 = _mm_xor_si128(fold(x3, k1k2), load16(p + 48));
    p += 64;
    n -= 64;
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = _mm_xor_si128(fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(fold(x0, k3k4), x3);
  while (n >= 16) {
    x0 = _mm_xor_si128(fold(x0, k3k4), load16(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 96 bits: fold the low half into the high half with k4.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 96 -> 64 bits with k5.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                                          _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction, 64 -> 32 bits: q = low32 * mu, r = x ^ low32(q) * P.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef ORDMA_CLMUL_TARGET

bool cpu_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // ORDMA_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_update_table(std::uint32_t crc,
                                 std::span<const std::byte> data) {
  const auto& t = kCrc32.t;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
            t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n--) {
    crc = (crc >> 8) ^ t[0][(crc ^ std::to_integer<std::uint32_t>(*p++)) &
                            0xff];
  }
  return crc;
}

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::byte> data) {
#ifdef ORDMA_CRC32_CLMUL
  if (data.size() >= kFoldMin && cpu_has_clmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc = crc32_fold_clmul(crc, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  return crc32_update_table(crc, data);
}

}  // namespace ordma

// SHA-256 block compression on the x86 SHA extensions. This TU is built
// with -msha -msse4.1 (src/util/CMakeLists.txt) and holds nothing else, so
// no SHA-NI instruction can leak into code that runs on CPUs without it;
// util::Sha256 calls it only after CPUID reports the extensions.
#include "util/sha256_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace wafp::util::sha256_detail {
namespace {

__m128i load128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

}  // namespace

void compress_shani(State& state, const std::uint8_t* data,
                    std::size_t nblocks) {
  // Message words are big-endian; this shuffle swaps each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // sha256rnds2 works on the state split as (A, B, E, F) and (C, D, G, H).
  // Lane comments list 32-bit lanes from high to low.
  __m128i tmp = _mm_shuffle_epi32(load128(&state[0]), 0xB1);     // C D A B
  __m128i cdgh = _mm_shuffle_epi32(load128(&state[4]), 0x1B);    // E F G H
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                  // A B E F
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                       // C D G H

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds message words W[4g .. 4g+3] for round group g.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(load128(data + 16 * g), byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a
        // time; `cur` still holds group g-4, i.e. W[t-16].
        __m128i next = _mm_sha256msg1_epu32(cur, w[(g + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(next, w[(g + 3) & 3]);
      }
      __m128i msg = _mm_add_epi32(cur, load128(&kRoundConstants[4 * g]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                  // F E B A
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                 // D C H G
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));   // D C B A
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));      // H G F E
}

}  // namespace wafp::util::sha256_detail

#endif  // defined(__x86_64__)

// AVX2 tier of the banded-extension engine. Compiled with -mavx2 (see
// src/align/CMakeLists.txt); only runs after the dispatcher checks
// __builtin_cpu_supports("avx2").

#include <immintrin.h>

#include "align/kernel_impl.h"

namespace seedex {
namespace kern {
namespace {

struct Avx2Traits
{
    using vec = __m256i;
    static constexpr int kLanes = 16;

    static vec zero() { return _mm256_setzero_si256(); }
    static vec set1(int16_t v) { return _mm256_set1_epi16(v); }
    static vec set1u(uint16_t v)
    {
        return _mm256_set1_epi16(static_cast<int16_t>(v));
    }
    static vec loadu(const void *p)
    {
        return _mm256_loadu_si256(static_cast<const __m256i *>(p));
    }
    static void storeu(void *p, vec v)
    {
        _mm256_storeu_si256(static_cast<__m256i *>(p), v);
    }
    static vec adds(vec a, vec b) { return _mm256_adds_epi16(a, b); }
    static vec subs(vec a, vec b) { return _mm256_subs_epi16(a, b); }
    static vec max(vec a, vec b) { return _mm256_max_epi16(a, b); }
    static vec maxu(vec a, vec b) { return _mm256_max_epu16(a, b); }
    static vec subsu(vec a, vec b) { return _mm256_subs_epu16(a, b); }
    static vec cmpeq(vec a, vec b) { return _mm256_cmpeq_epi16(a, b); }
    static vec cmpgt(vec a, vec b) { return _mm256_cmpgt_epi16(a, b); }
    static vec and_(vec a, vec b) { return _mm256_and_si256(a, b); }
    static vec andnot(vec a, vec b) { return _mm256_andnot_si256(a, b); }
    static vec or_(vec a, vec b) { return _mm256_or_si256(a, b); }
    static vec xor_(vec a, vec b) { return _mm256_xor_si256(a, b); }
    /** mask ? a : b (mask lanes all-ones or all-zeros). */
    static vec blend(vec mask, vec a, vec b)
    {
        return _mm256_blendv_epi8(b, a, mask);
    }
    static int movemask(vec v) { return _mm256_movemask_epi8(v); }
    /** One bit per lane of a lane mask (all-ones/all-zeros lanes). */
    static uint32_t
    laneMask(vec mask)
    {
        return static_cast<uint32_t>(_mm_movemask_epi8(
            _mm_packs_epi16(_mm256_castsi256_si128(mask),
                            _mm256_extracti128_si256(mask, 1))));
    }
    /**
     * Lane k <- lane k-N, zeros (the biased minimum) shifted in. AVX2
     * byte shifts do not cross the 128-bit boundary, so the low half is
     * first swung into the high half ([0 | v.lo]) and alignr stitches
     * the crossing bytes back together.
     */
    template <int N>
    static vec
    shiftLanesUp(vec v)
    {
        const __m256i lo_hi = _mm256_permute2x128_si256(v, v, 0x08);
        if constexpr (N == 8)
            return lo_hi;
        else
            return _mm256_alignr_epi8(v, lo_hi, 16 - 2 * N);
    }
    static uint16_t lastLaneU(vec v)
    {
        return static_cast<uint16_t>(_mm256_extract_epi16(v, 15));
    }
    static int16_t
    reduceMax(vec v)
    {
        __m128i x = _mm_max_epi16(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
        x = _mm_max_epi16(x, _mm_srli_si128(x, 8));
        x = _mm_max_epi16(x, _mm_srli_si128(x, 4));
        x = _mm_max_epi16(x, _mm_srli_si128(x, 2));
        return static_cast<int16_t>(_mm_extract_epi16(x, 0));
    }
    static vec lanesIndex()
    {
        return _mm256_set_epi16(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4,
                                3, 2, 1, 0);
    }
    /** Pack int16 lanes (small non-negative values) to n bytes. */
    static void
    packStoreBytes(uint8_t *dst, vec v, int n)
    {
        const __m128i packed =
            _mm_packs_epi16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
        if (n >= kLanes) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), packed);
        } else {
            alignas(16) uint8_t tmp[16];
            _mm_store_si128(reinterpret_cast<__m128i *>(tmp), packed);
            std::memcpy(dst, tmp, static_cast<size_t>(n));
        }
    }
};

} // namespace

bool
avx2Compiled()
{
    return true;
}

bool
extendAvx2(const Sequence &query, const Sequence &target, int h0,
           const ExtendConfig &config, DpWorkspace &ws, ExtendResult &out)
{
    return extendSimd<Avx2Traits>(query, target, h0, config, ws, out);
}

bool
speculationAvx2(const Sequence &query, const Sequence &target, int h0,
                const Scoring &scoring, int band, DpWorkspace &ws,
                bool &exception)
{
    return speculationSimd<Avx2Traits>(query, target, h0, scoring, band,
                                       ws, exception);
}

bool
gotohFillAvx2(const Sequence &query, const Sequence &target,
              const Scoring &scoring, int band, DpWorkspace &ws,
              GotohFill &out)
{
    return gotohFillSimd<Avx2Traits>(query, target, scoring, band, ws,
                                     out);
}

} // namespace kern
} // namespace seedex

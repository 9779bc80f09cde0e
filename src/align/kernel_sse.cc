// SSE4.1 tier of the banded-extension engine. Compiled with -msse4.1
// (see src/align/CMakeLists.txt); only runs after the dispatcher checks
// __builtin_cpu_supports("sse4.1").

#include <smmintrin.h>

#include "align/kernel_impl.h"

namespace seedex {
namespace kern {
namespace {

struct SseTraits
{
    using vec = __m128i;
    static constexpr int kLanes = 8;

    static vec zero() { return _mm_setzero_si128(); }
    static vec set1(int16_t v) { return _mm_set1_epi16(v); }
    static vec set1u(uint16_t v)
    {
        return _mm_set1_epi16(static_cast<int16_t>(v));
    }
    static vec loadu(const void *p)
    {
        return _mm_loadu_si128(static_cast<const __m128i *>(p));
    }
    static void storeu(void *p, vec v)
    {
        _mm_storeu_si128(static_cast<__m128i *>(p), v);
    }
    static vec adds(vec a, vec b) { return _mm_adds_epi16(a, b); }
    static vec subs(vec a, vec b) { return _mm_subs_epi16(a, b); }
    static vec max(vec a, vec b) { return _mm_max_epi16(a, b); }
    static vec maxu(vec a, vec b) { return _mm_max_epu16(a, b); }
    static vec subsu(vec a, vec b) { return _mm_subs_epu16(a, b); }
    static vec cmpeq(vec a, vec b) { return _mm_cmpeq_epi16(a, b); }
    static vec cmpgt(vec a, vec b) { return _mm_cmpgt_epi16(a, b); }
    static vec and_(vec a, vec b) { return _mm_and_si128(a, b); }
    static vec andnot(vec a, vec b) { return _mm_andnot_si128(a, b); }
    static vec or_(vec a, vec b) { return _mm_or_si128(a, b); }
    static vec xor_(vec a, vec b) { return _mm_xor_si128(a, b); }
    /** mask ? a : b (mask lanes all-ones or all-zeros). */
    static vec blend(vec mask, vec a, vec b)
    {
        return _mm_blendv_epi8(b, a, mask);
    }
    static int movemask(vec v) { return _mm_movemask_epi8(v); }
    /** One bit per lane of a lane mask (all-ones/all-zeros lanes). */
    static uint32_t
    laneMask(vec mask)
    {
        return static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_packs_epi16(mask, _mm_setzero_si128())));
    }
    /** Lane k <- lane k-N, zero (biased minimum) shifted in. */
    template <int N>
    static vec
    shiftLanesUp(vec v)
    {
        return _mm_slli_si128(v, 2 * N);
    }
    static uint16_t lastLaneU(vec v)
    {
        return static_cast<uint16_t>(_mm_extract_epi16(v, 7));
    }
    static int16_t
    reduceMax(vec v)
    {
        v = _mm_max_epi16(v, _mm_srli_si128(v, 8));
        v = _mm_max_epi16(v, _mm_srli_si128(v, 4));
        v = _mm_max_epi16(v, _mm_srli_si128(v, 2));
        return static_cast<int16_t>(_mm_extract_epi16(v, 0));
    }
    static vec lanesIndex()
    {
        return _mm_set_epi16(7, 6, 5, 4, 3, 2, 1, 0);
    }
    /** Pack int16 lanes (small non-negative values) to n bytes. */
    static void
    packStoreBytes(uint8_t *dst, vec v, int n)
    {
        const __m128i packed = _mm_packs_epi16(v, v);
        if (n >= kLanes) {
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst), packed);
        } else {
            alignas(16) uint8_t tmp[16];
            _mm_store_si128(reinterpret_cast<__m128i *>(tmp), packed);
            std::memcpy(dst, tmp, static_cast<size_t>(n));
        }
    }
};

} // namespace

bool
sseCompiled()
{
    return true;
}

bool
extendSse(const Sequence &query, const Sequence &target, int h0,
          const ExtendConfig &config, DpWorkspace &ws, ExtendResult &out)
{
    return extendSimd<SseTraits>(query, target, h0, config, ws, out);
}

bool
speculationSse(const Sequence &query, const Sequence &target, int h0,
               const Scoring &scoring, int band, DpWorkspace &ws,
               bool &exception)
{
    return speculationSimd<SseTraits>(query, target, h0, scoring, band, ws,
                                      exception);
}

bool
gotohFillSse(const Sequence &query, const Sequence &target,
             const Scoring &scoring, int band, DpWorkspace &ws,
             GotohFill &out)
{
    return gotohFillSimd<SseTraits>(query, target, scoring, band, ws, out);
}

} // namespace kern
} // namespace seedex

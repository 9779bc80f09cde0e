#ifndef SEEDEX_FMINDEX_PACKED_BWT_H
#define SEEDEX_FMINDEX_PACKED_BWT_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/huge_pages.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SEEDEX_RANK_SIMD 1
#include <immintrin.h>
#endif

namespace seedex {

/** Internals of the packed rank path. The definitions live in the
 *  header so rank queries inline into FmdIndex::extend — the call is
 *  executed twice per backward extension and its two rank chains are
 *  independent, so inlining lets the compiler overlap them. */
namespace packed_detail {

/** Every 2-bit lane's low bit. */
constexpr uint64_t kLaneLowBits = 0x5555555555555555ULL;

/** Replicate a 2-bit code into every lane of a word. */
constexpr uint64_t
codePattern(uint8_t code)
{
    return kLaneLowBits * code;
}

/** Symbols per 64-bit data word. */
constexpr uint64_t kWordSymbols = 32;
/** Symbols per 64-byte block. */
constexpr uint64_t kBlockSymbols = 128;

/** Low lane bits of data word w covered by the block prefix [0, off).
 *  Compiles to conditional moves, so all four words of a block can be
 *  processed with a fixed-trip-count loop and no data-dependent branch
 *  (`off` is effectively random, so a variable trip count mispredicts
 *  on almost every query). */
constexpr uint64_t
wordMask(uint64_t off, int w)
{
    const int64_t rem = static_cast<int64_t>(off) -
        static_cast<int64_t>(w) * static_cast<int64_t>(kWordSymbols);
    if (rem <= 0)
        return 0;
    if (rem >= static_cast<int64_t>(kWordSymbols))
        return kLaneLowBits;
    return ((uint64_t{1} << (2 * rem)) - 1) & kLaneLowBits;
}

/** Lanes of codes 1..3 among the first `off` of a block's 128 (the
 *  portable path: one popcount per word and code, hardware POPCNT when
 *  the library is built with it). Code 0's count is the remainder. */
inline void
portableCounts(const uint64_t *data, uint64_t off, uint64_t hits[3])
{
    uint64_t hit1 = 0, hit2 = 0, hit3 = 0;
    for (int w = 0; w < 4; ++w) {
        const uint64_t word = data[w];
        const uint64_t mask = wordMask(off, w);
        // One XOR per code classifies every lane; a matching lane is 00.
        const uint64_t x1 = word ^ codePattern(1);
        const uint64_t x2 = word ^ codePattern(2);
        const uint64_t x3 = word ^ codePattern(3);
        hit1 += static_cast<uint64_t>(
            std::popcount(~(x1 | (x1 >> 1)) & mask));
        hit2 += static_cast<uint64_t>(
            std::popcount(~(x2 | (x2 >> 1)) & mask));
        hit3 += static_cast<uint64_t>(
            std::popcount(~(x3 | (x3 >> 1)) & mask));
    }
    hits[0] = hit1;
    hits[1] = hit2;
    hits[2] = hit3;
}

/** Lanes of one code among the first `off` of a block's 128 (portable
 *  path). */
inline uint64_t
portableCount(const uint64_t *data, uint64_t off, uint8_t code)
{
    const uint64_t pattern = codePattern(code);
    uint64_t n = 0;
    for (int w = 0; w < 4; ++w) {
        const uint64_t x = data[w] ^ pattern; // matching lanes become 00
        n += static_cast<uint64_t>(
            std::popcount(~(x | (x >> 1)) & wordMask(off, w)));
    }
    return n;
}

#ifdef SEEDEX_RANK_SIMD

/** wordMask for every (off, w) pair, laid out so one 32-byte aligned
 *  load yields the four word masks of a block prefix. 4 KiB total; hot
 *  queries keep it L1-resident. */
struct PrefixMaskTable
{
    alignas(32) uint64_t m[kBlockSymbols][4];
    constexpr PrefixMaskTable() : m{}
    {
        for (uint64_t off = 0; off < kBlockSymbols; ++off)
            for (int w = 0; w < 4; ++w)
                m[off][w] = wordMask(off, w);
    }
};
inline constexpr PrefixMaskTable kPrefixMasks;

/** One 2-bit classify + VPOPCNTQ per code over the whole 32-byte data
 *  payload: 3 vector popcounts replace the scalar path's 12. The three
 *  per-word count vectors are byte-packed into one (counts are <= 128,
 *  so 8 bits per code suffice) and reduced with a single lane-sum. */
__attribute__((target("avx2,avx512vl,avx512vpopcntdq"))) inline void
classifyCounts(const uint64_t *data, uint64_t off, uint64_t hits[3])
{
    const __m256i words =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(data));
    const __m256i mask = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kPrefixMasks.m[off]));
    const __m256i lo =
        _mm256_set1_epi64x(static_cast<long long>(kLaneLowBits));
    const __m256i hi = _mm256_slli_epi64(lo, 1);
    const __m256i x1 = _mm256_xor_si256(words, lo);
    const __m256i x2 = _mm256_xor_si256(words, hi);
    const __m256i x3 = _mm256_xor_si256(words, _mm256_or_si256(lo, hi));
// Matching lanes of x are 00; ~(x | x>>1) puts a 1 in their low bit.
#define SEEDEX_HIT_LANES(x)                                              \
    _mm256_andnot_si256(_mm256_or_si256((x), _mm256_srli_epi64((x), 1)), \
                        mask)
    const __m256i c1 = _mm256_popcnt_epi64(SEEDEX_HIT_LANES(x1));
    const __m256i c2 = _mm256_popcnt_epi64(SEEDEX_HIT_LANES(x2));
    const __m256i c3 = _mm256_popcnt_epi64(SEEDEX_HIT_LANES(x3));
#undef SEEDEX_HIT_LANES
    const __m256i packed = _mm256_or_si256(
        c1, _mm256_or_si256(_mm256_slli_epi64(c2, 8),
                            _mm256_slli_epi64(c3, 16)));
    __m128i s = _mm_add_epi64(_mm256_castsi256_si128(packed),
                              _mm256_extracti128_si256(packed, 1));
    s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
    const uint64_t sum = static_cast<uint64_t>(_mm_cvtsi128_si64(s));
    hits[0] = sum & 0xff;
    hits[1] = (sum >> 8) & 0xff;
    hits[2] = (sum >> 16) & 0xff;
}

/** Fused variant for two offsets into the SAME block — the common case
 *  late in a backward extension, when the interval [k, k+s) has shrunk
 *  below a cache line's 128 symbols. The symbol classification (XOR +
 *  shift-OR) is shared; only the prefix mask, popcount, and reduce are
 *  done per offset. */
__attribute__((target("avx2,avx512vl,avx512vpopcntdq"))) inline void
classifyCountsPair(const uint64_t *data, uint64_t off_a, uint64_t off_b,
                   uint64_t hits_a[3], uint64_t hits_b[3])
{
    const __m256i words =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(data));
    const __m256i mask_a = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kPrefixMasks.m[off_a]));
    const __m256i mask_b = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kPrefixMasks.m[off_b]));
    const __m256i lo =
        _mm256_set1_epi64x(static_cast<long long>(kLaneLowBits));
    const __m256i hi = _mm256_slli_epi64(lo, 1);
    const __m256i x1 = _mm256_xor_si256(words, lo);
    const __m256i x2 = _mm256_xor_si256(words, hi);
    const __m256i x3 = _mm256_xor_si256(words, _mm256_or_si256(lo, hi));
// t has a 0 in the low bit of every matching lane; andnot(t, mask)
// selects the matches under each prefix mask.
#define SEEDEX_HIT_T(x) _mm256_or_si256((x), _mm256_srli_epi64((x), 1))
    const __m256i t1 = SEEDEX_HIT_T(x1);
    const __m256i t2 = SEEDEX_HIT_T(x2);
    const __m256i t3 = SEEDEX_HIT_T(x3);
#undef SEEDEX_HIT_T
    const __m256i a1 = _mm256_popcnt_epi64(_mm256_andnot_si256(t1, mask_a));
    const __m256i a2 = _mm256_popcnt_epi64(_mm256_andnot_si256(t2, mask_a));
    const __m256i a3 = _mm256_popcnt_epi64(_mm256_andnot_si256(t3, mask_a));
    const __m256i b1 = _mm256_popcnt_epi64(_mm256_andnot_si256(t1, mask_b));
    const __m256i b2 = _mm256_popcnt_epi64(_mm256_andnot_si256(t2, mask_b));
    const __m256i b3 = _mm256_popcnt_epi64(_mm256_andnot_si256(t3, mask_b));
    const __m256i packed_a = _mm256_or_si256(
        a1, _mm256_or_si256(_mm256_slli_epi64(a2, 8),
                            _mm256_slli_epi64(a3, 16)));
    const __m256i packed_b = _mm256_or_si256(
        b1, _mm256_or_si256(_mm256_slli_epi64(b2, 8),
                            _mm256_slli_epi64(b3, 16)));
    __m128i sa = _mm_add_epi64(_mm256_castsi256_si128(packed_a),
                               _mm256_extracti128_si256(packed_a, 1));
    sa = _mm_add_epi64(sa, _mm_unpackhi_epi64(sa, sa));
    __m128i sb = _mm_add_epi64(_mm256_castsi256_si128(packed_b),
                               _mm256_extracti128_si256(packed_b, 1));
    sb = _mm_add_epi64(sb, _mm_unpackhi_epi64(sb, sb));
    const uint64_t sum_a = static_cast<uint64_t>(_mm_cvtsi128_si64(sa));
    const uint64_t sum_b = static_cast<uint64_t>(_mm_cvtsi128_si64(sb));
    hits_a[0] = sum_a & 0xff;
    hits_a[1] = (sum_a >> 8) & 0xff;
    hits_a[2] = (sum_a >> 16) & 0xff;
    hits_b[0] = sum_b & 0xff;
    hits_b[1] = (sum_b >> 8) & 0xff;
    hits_b[2] = (sum_b >> 16) & 0xff;
}

/** Single-code variant for rank(): one classify chain, one VPOPCNTQ. */
__attribute__((target("avx2,avx512vl,avx512vpopcntdq"))) inline uint64_t
classifyCount(const uint64_t *data, uint64_t off, uint8_t code)
{
    const __m256i words =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(data));
    const __m256i mask = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kPrefixMasks.m[off]));
    const __m256i pattern = _mm256_set1_epi64x(
        static_cast<long long>(codePattern(code)));
    const __m256i x = _mm256_xor_si256(words, pattern);
    const __m256i hit = _mm256_andnot_si256(
        _mm256_or_si256(x, _mm256_srli_epi64(x, 1)), mask);
    const __m256i c = _mm256_popcnt_epi64(hit);
    __m128i s = _mm_add_epi64(_mm256_castsi256_si128(c),
                              _mm256_extracti128_si256(c, 1));
    s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s));
}

/** Decided once at startup; the per-call branch predicts perfectly. */
inline const bool kHaveVpopcnt =
    __builtin_cpu_supports("avx512vl") &&
    __builtin_cpu_supports("avx512vpopcntdq");

#endif // SEEDEX_RANK_SIMD

} // namespace packed_detail

/**
 * Cache-line-packed BWT with interleaved occ checkpoints.
 *
 * A byte-per-symbol BWT with a *separate* checkpoint array answers an
 * occ query with two dependent cache lines plus a scan of up to a
 * checkpoint interval's symbols. This layout, the only one FmdIndex
 * has, interleaves both into one 64-byte block covering 128 symbols:
 *
 *     struct Block {            // one cache line
 *         uint64_t cp[4];       // occ(A..T) at the block start
 *         uint64_t data[4];     // 128 symbols, 2 bits each
 *     };
 *
 * so rankAll() is one cache-line fetch plus a handful of XOR/popcount
 * word operations (the BWA-MEM2 occ trick) — or, on CPUs with
 * AVX512-VPOPCNTDQ, three vector popcounts (runtime-dispatched, see
 * packed_detail::classifyCounts). The five-symbol alphabet ($, A, C,
 * G, T) is squeezed into 2 bits by storing every non-ACGT symbol as
 * code 0 and recording its position in a sparse, sorted exception
 * list; queries subtract the exceptions below the query point. For an
 * FMD text the list holds exactly one entry (the sentinel), so the
 * fix-up is a single compare, but the structure stays general.
 *
 * Symbols handed in and out use the FmdIndex shifted alphabet:
 * 0 = $, 1..4 = A..T.
 */
class PackedBwt
{
  public:
    /** Symbols per 64-byte block. */
    static constexpr uint64_t kBlockSymbols =
        packed_detail::kBlockSymbols;
    /** Symbols per 64-bit data word. */
    static constexpr uint64_t kWordSymbols = packed_detail::kWordSymbols;

    PackedBwt() = default;

    /** Pack a shifted-alphabet BWT (values 0..4). */
    explicit PackedBwt(const std::vector<uint8_t> &bwt);

    /** Number of symbols. */
    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Shifted symbol at position i (0 for exceptions). */
    uint8_t symbolAt(uint64_t i) const;

    /** occ(c, i): occurrences of shifted symbol c in [0, i). */
    uint64_t
    rank(uint8_t c, uint64_t i) const
    {
        using namespace packed_detail;
        if (c == 0)
            return exceptionsBelow(i);
        const uint8_t code = static_cast<uint8_t>(c - 1);
        const Block &b = blocks_[i / kBlockSymbols];
        const uint64_t off = i % kBlockSymbols;
        uint64_t n = b.cp[code];
#ifdef SEEDEX_RANK_SIMD
        if (kHaveVpopcnt)
            n += classifyCount(b.data, off, code);
        else
#endif
            n += portableCount(b.data, off, code);
        if (code == 0)
            n -= exceptionsBelow(i); // exceptions were stored as code 0
        return n;
    }

    /** occ of all five shifted symbols in [0, i). */
    void
    rankAll(uint64_t i, uint64_t out[5]) const
    {
        using namespace packed_detail;
        const Block &b = blocks_[i / kBlockSymbols];
        const uint64_t off = i % kBlockSymbols;
        uint64_t hits[3];
#ifdef SEEDEX_RANK_SIMD
        if (kHaveVpopcnt)
            classifyCounts(b.data, off, hits);
        else
#endif
            portableCounts(b.data, off, hits);
        // The masks cover exactly `off` lanes, so code 0's count is the
        // remainder — no fourth popcount chain needed.
        const uint64_t hit0 = off - hits[0] - hits[1] - hits[2];
        const uint64_t sentinels = exceptionsBelow(i);
        out[0] = sentinels;
        out[1] = b.cp[0] + hit0 - sentinels;
        out[2] = b.cp[1] + hits[0];
        out[3] = b.cp[2] + hits[1];
        out[4] = b.cp[3] + hits[2];
    }

    /** rankAll at two positions, sharing the block read and symbol
     *  classification when both land in the same 128-symbol block (the
     *  usual case once an interval has shrunk below a cache line).
     *  Requires i <= j. */
    void
    rankAllPair(uint64_t i, uint64_t j, uint64_t out_i[5],
                uint64_t out_j[5]) const
    {
        using namespace packed_detail;
#ifdef SEEDEX_RANK_SIMD
        if (kHaveVpopcnt && i / kBlockSymbols == j / kBlockSymbols) {
            const Block &b = blocks_[i / kBlockSymbols];
            const uint64_t off_i = i % kBlockSymbols;
            const uint64_t off_j = j % kBlockSymbols;
            uint64_t hits_i[3], hits_j[3];
            classifyCountsPair(b.data, off_i, off_j, hits_i, hits_j);
            const uint64_t hit0_i =
                off_i - hits_i[0] - hits_i[1] - hits_i[2];
            const uint64_t hit0_j =
                off_j - hits_j[0] - hits_j[1] - hits_j[2];
            const uint64_t sent_i = exceptionsBelow(i);
            const uint64_t sent_j = exceptionsBelow(j);
            out_i[0] = sent_i;
            out_i[1] = b.cp[0] + hit0_i - sent_i;
            out_i[2] = b.cp[1] + hits_i[0];
            out_i[3] = b.cp[2] + hits_i[1];
            out_i[4] = b.cp[3] + hits_i[2];
            out_j[0] = sent_j;
            out_j[1] = b.cp[0] + hit0_j - sent_j;
            out_j[2] = b.cp[1] + hits_j[0];
            out_j[3] = b.cp[2] + hits_j[1];
            out_j[4] = b.cp[3] + hits_j[2];
            return;
        }
#endif
        rankAll(i, out_i);
        rankAll(j, out_j);
    }

    /** Hint the cache that position i's block is about to be ranked.
     *  Locality 3 (prefetcht0) pulls the line into L1: the index is
     *  often already L3-resident, so an L3-targeted prefetch would hide
     *  nothing — the latency being overlapped is L3's, not DRAM's. */
    void
    prefetch(uint64_t i) const
    {
        __builtin_prefetch(&blocks_[i / kBlockSymbols], 0, 3);
    }

    /** Positions whose true symbol is not in A..T (here: the sentinel). */
    const std::vector<uint64_t> &exceptions() const { return exceptions_; }

    size_t
    storageBytes() const
    {
        return blocks_.size() * sizeof(Block) +
               exceptions_.size() * sizeof(uint64_t);
    }

  private:
    struct alignas(64) Block
    {
        uint64_t cp[4];   ///< occ of codes 0..3 (A..T) at block start
        uint64_t data[4]; ///< 2-bit codes, lane j at bits (2j, 2j+1)
    };

    /** Exceptions in [0, i) (the occ($, i) term). An FMD text has
     *  exactly one (the sentinel), so the common case is a single
     *  branchless compare against the cached first position. */
    uint64_t
    exceptionsBelow(uint64_t i) const
    {
        if (exceptions_.size() <= 1)
            return first_exception_ < i ? 1 : 0;
        uint64_t n = 0;
        for (uint64_t pos : exceptions_) {
            if (pos >= i)
                break;
            ++n;
        }
        return n;
    }

    HugePageVector<Block> blocks_;
    std::vector<uint64_t> exceptions_; ///< sorted positions, code 0
    /** exceptions_[0], or UINT64_MAX when there are none. */
    uint64_t first_exception_ = UINT64_MAX;
    uint64_t size_ = 0;

    friend class FmdIndex; // serialization accesses the raw blocks
};

} // namespace seedex

#endif // SEEDEX_FMINDEX_PACKED_BWT_H

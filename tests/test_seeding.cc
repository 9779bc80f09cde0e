/**
 * @file
 * Differential validation of the high-throughput seeding stack.
 *
 * The packed popcount FM-index and the lockstep batch driver promise
 * results bit-identical to plain references kept in this file:
 *
 *  - ReferenceIndex, a byte-per-symbol BWT with its full suffix array
 *    (from buildSuffixArray over the index text), is the oracle for
 *    PackedBwt's rank arithmetic at every offset and for FmdIndex's
 *    match intervals and locate hits (by suffix-range search). It
 *    shares no rank code with FmdIndex.
 *  - A rank-only SMEM search (every step a BWT extension, every hit a
 *    locate walk) is the oracle for the text path: unique matches
 *    extend by comparison against the index text, not by rank queries.
 *    The SMEM spans, occurrence counts, located positions and seeds of
 *    both drivers must equal it across the strand junction, at both
 *    reference ends, and with min_intv = 2, where the text path never
 *    engages. Both drivers must also issue the same occ queries and
 *    text steps.
 *
 * The fuzzing covers random genomes with injected N runs, sentinel-
 * adjacent patterns, very short reads and tiny references. The file
 * also checks index serialization round-trips and that malformed
 * streams are rejected before anything is sized from them, verifies the
 * seed.* instruments advance, and asserts the steady-state batch
 * seeding path performs zero heap allocations via global operator
 * new/delete counting hooks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "aligner/seeding.h"
#include "fmindex/fmd_index.h"
#include "fmindex/packed_bwt.h"
#include "fmindex/smem.h"
#include "fmindex/suffix_array.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/huge_pages.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks (same discipline as test_kernel.cc): every
// global operator new bumps a counter so the zero-allocation test can
// snapshot the steady state, and records the largest request so the
// serialization tests can bound what a corrupt stream makes load()
// allocate.

namespace {
std::atomic<uint64_t> g_new_calls{0};
std::atomic<size_t> g_largest_new{0};

void *
countedAlloc(size_t n, size_t align)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    size_t largest = g_largest_new.load(std::memory_order_relaxed);
    while (n > largest && !g_largest_new.compare_exchange_weak(
                              largest, n, std::memory_order_relaxed)) {
    }
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n ? n : 1);
    } else if (posix_memalign(&p, align, n ? n : align) != 0) {
        p = nullptr;
    }
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(size_t n) { return countedAlloc(n, 0); }
void *operator new[](size_t n) { return countedAlloc(n, 0); }
void *
operator new(size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void *
operator new[](size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace seedex {
namespace {

// ---------------------------------------------------------------------
// Workload generation

/** Synthetic reference with a few injected runs of N (the generator
 *  itself never emits N; index construction collapses them to A). */
Sequence
referenceWithNRuns(Rng &rng, size_t len)
{
    ReferenceParams params;
    params.length = len;
    params.repeat_fraction = 0.15;
    Sequence ref = generateReference(params, rng);
    for (int run = 0; run < 4; ++run) {
        const size_t run_len = 2 + rng.pick(6);
        const size_t at = rng.pick(ref.size() - run_len);
        for (size_t i = 0; i < run_len; ++i)
            ref[at + i] = kBaseN;
    }
    return ref;
}

/** A read sampled from the reference with a few mismatches and an
 *  occasional N, on either strand. */
Sequence
sampleRead(Rng &rng, const Sequence &ref, size_t len)
{
    const size_t pos = rng.pick(ref.size() - len);
    Sequence read = ref.slice(pos, len);
    const int edits = static_cast<int>(rng.pick(4));
    for (int e = 0; e < edits; ++e) {
        const size_t at = rng.pick(len);
        read[at] = rng.coin(0.2)
            ? kBaseN
            : static_cast<Base>((read[at] + 1 + rng.pick(3)) % 4);
    }
    if (rng.coin(0.5))
        read = read.reverseComplement();
    return read;
}

/** The index text without its sentinel: ref (N as A) . revcomp. */
Sequence
indexText(const Sequence &ref)
{
    Sequence fwd = ref;
    for (size_t i = 0; i < fwd.size(); ++i)
        if (fwd[i] >= kNumBases)
            fwd[i] = kBaseA;
    Sequence text = fwd;
    text.append(fwd.reverseComplement());
    return text;
}

bool
isClean(const Sequence &p)
{
    for (size_t i = 0; i < p.size(); ++i)
        if (p[i] >= kNumBases)
            return false;
    return true;
}

// ---------------------------------------------------------------------
// The reference index

/**
 * The FM-index of ref . revcomp(ref) . $ kept the plain way: the index
 * text in the shifted alphabet (1..4 = A..T), its full suffix array
 * from buildSuffixArray with the sentinel suffix as row 0 (as in
 * FmdIndex), and its BWT one byte per symbol (0 = $). Intervals come
 * from a binary search for the pattern's suffix range and hits
 * straight from the suffix array; PackedBwt's ranks are checked
 * against plain counts over `bwt`.
 */
struct ReferenceIndex
{
    std::vector<uint8_t> text; ///< without the sentinel
    std::vector<uint64_t> rows; ///< rows[r]: text position of BWT row r
    std::vector<uint8_t> bwt;

    explicit ReferenceIndex(const Sequence &ref)
    {
        const Sequence t = indexText(ref);
        for (size_t i = 0; i < t.size(); ++i)
            text.push_back(static_cast<uint8_t>(t[i] + 1));
        rows.push_back(text.size()); // "$" sorts first
        for (const int32_t pos : buildSuffixArray(text))
            rows.push_back(static_cast<uint64_t>(pos));
        for (const uint64_t pos : rows)
            bwt.push_back(pos == 0 ? 0 : text[pos - 1]);
    }

    /** The rows [first, last) whose suffix starts with `p` (shifted
     *  codes); a suffix that ends inside `p` sorts before it. */
    std::pair<uint64_t, uint64_t>
    range(const std::vector<uint8_t> &p) const
    {
        const auto cmp = [&](uint64_t pos) {
            for (size_t i = 0; i < p.size(); ++i) {
                if (pos + i == text.size())
                    return -1;
                if (text[pos + i] != p[i])
                    return text[pos + i] < p[i] ? -1 : 1;
            }
            return 0;
        };
        const auto lo = std::partition_point(
            rows.begin(), rows.end(), [&](uint64_t r) { return cmp(r) < 0; });
        const auto hi = std::partition_point(
            lo, rows.end(), [&](uint64_t r) { return cmp(r) == 0; });
        return {static_cast<uint64_t>(lo - rows.begin()),
                static_cast<uint64_t>(hi - rows.begin())};
    }

    /** The bi-interval FmdIndex::match must return for a clean pattern:
     *  k and s from the pattern's suffix range, l from its reverse
     *  complement's; all zero when it does not occur. */
    FmdInterval
    match(const Sequence &pattern) const
    {
        std::vector<uint8_t> fwd, rc;
        for (size_t i = 0; i < pattern.size(); ++i) {
            fwd.push_back(static_cast<uint8_t>(pattern[i] + 1));
            rc.insert(rc.begin(),
                      static_cast<uint8_t>(complement(pattern[i]) + 1));
        }
        const auto [k, end] = range(fwd);
        if (pattern.empty() || k == end)
            return {};
        return {k, range(rc).first, end - k, 0};
    }

    /** Hits of the first min(s, max_hits) rows of `iv`, in row order. */
    std::vector<FmdHit>
    locate(const FmdInterval &iv, size_t max_hits, size_t len) const
    {
        const uint64_t L = text.size() / 2;
        std::vector<FmdHit> hits;
        const uint64_t n = std::min<uint64_t>(iv.s, max_hits);
        for (uint64_t r = iv.k; r < iv.k + n; ++r) {
            const uint64_t pos = rows[r];
            hits.push_back(pos < L ? FmdHit{pos, false}
                                   : FmdHit{2 * L - pos - len, true});
        }
        return hits;
    }
};

/** Expect `index` to give the reference's interval for `p`, and for a
 *  present pattern the reference's hits from both locate forms. */
void
expectMatchAndLocate(const FmdIndex &index, const ReferenceIndex &oracle,
                     const Sequence &p, const std::string &ctx)
{
    const FmdInterval want = oracle.match(p);
    ASSERT_EQ(index.match(p), want) << ctx << ", pattern " << p.toString();
    if (want.empty())
        return;
    const auto hits = oracle.locate(want, 64, p.size());
    EXPECT_EQ(index.locate(want, 64, p.size()), hits)
        << ctx << ", pattern " << p.toString();
    std::vector<FmdHit> into;
    index.locateInto(want, 64, p.size(), into);
    EXPECT_EQ(into, hits) << ctx << ", pattern " << p.toString();
}

/**
 * Check PackedBwt(bwt) against running counts over the byte BWT:
 * symbolAt, rank and rankAll at every offset, and rankAllPair at every
 * pair up to two blocks apart. Returns how many pairs fell within one
 * block and how many across two.
 */
std::pair<uint64_t, uint64_t>
expectPackedRanksMatch(const std::vector<uint8_t> &bwt,
                       const std::string &what)
{
    const PackedBwt packed(bwt);
    const uint64_t n = bwt.size();
    EXPECT_EQ(packed.size(), n) << what;
    // occ[i][c] = occurrences of c in bwt[0, i).
    std::vector<std::array<uint64_t, 5>> occ(n + 1);
    for (uint64_t i = 0; i < n; ++i) {
        occ[i + 1] = occ[i];
        ++occ[i + 1][bwt[i]];
    }
    const auto same = [&](const uint64_t got[5], uint64_t i) {
        return std::equal(got, got + 5, occ[i].begin());
    };
    constexpr uint64_t kBlock = PackedBwt::kBlockSymbols;
    uint64_t within = 0, across = 0;
    for (uint64_t i = 0; i <= n; ++i) {
        if (i < n) {
            EXPECT_EQ(packed.symbolAt(i), bwt[i]) << what << " at " << i;
        }
        uint64_t all[5];
        packed.rankAll(i, all);
        EXPECT_TRUE(same(all, i)) << what << ": rankAll at " << i;
        for (uint8_t c = 0; c < 5; ++c)
            EXPECT_EQ(packed.rank(c, i), occ[i][c])
                << what << ": rank(" << int(c) << ", " << i << ")";
        for (uint64_t j = i; j <= std::min(n, i + 2 * kBlock); ++j) {
            uint64_t at_i[5], at_j[5];
            packed.rankAllPair(i, j, at_i, at_j);
            if (!same(at_i, i) || !same(at_j, j)) {
                ADD_FAILURE() << what << ": rankAllPair(" << i << ", " << j
                              << ")";
                return {within, across};
            }
            within += i / kBlock == j / kBlock;
            across += j / kBlock == i / kBlock + 1;
        }
    }
    return {within, across};
}

TEST(PackedBwt, RanksMatchByteBwtAtEveryOffset)
{
    Rng rng(53);
    uint64_t within = 0, across = 0;
    const auto check = [&](const std::vector<uint8_t> &bwt,
                           const std::string &what) {
        const auto [w, a] = expectPackedRanksMatch(bwt, what);
        within += w;
        across += a;
    };
    // Raw symbol strings on both sides of one, two and three block
    // boundaries, with runs of $ (every non-ACGT symbol is stored as an
    // exception): none, the single sentinel of an FMD text, or several
    // runs, which take the general exception path.
    for (const size_t len : {1, 2, 127, 128, 129, 255, 256, 257, 383, 384,
                             385}) {
        for (const int runs : {0, 1, 3}) {
            std::vector<uint8_t> bwt(len);
            for (uint8_t &c : bwt)
                c = static_cast<uint8_t>(1 + rng.pick(4));
            for (int r = 0; r < runs; ++r) {
                const size_t run = runs == 1 ? 1 : 1 + rng.pick(6);
                const size_t at = rng.pick(len);
                for (size_t i = at; i < std::min(len, at + run); ++i)
                    bwt[i] = 0;
            }
            check(bwt, "raw, len " + std::to_string(len) + ", " +
                           std::to_string(runs) + " $ runs");
        }
    }
    // BWTs of FMD texts (T = 2L + 1 = 127, 129, 255, 257 and longer)
    // over references with N runs, which the index text holds as A.
    for (const size_t L : {63, 64, 127, 128, 700}) {
        const ReferenceIndex oracle(referenceWithNRuns(rng, L));
        check(oracle.bwt, "FMD text, L " + std::to_string(L));
    }
    EXPECT_GT(within, 0u);
    EXPECT_GT(across, 0u);
}

TEST(PackedBwt, BlockKernelsMatchLaneCounts)
{
    // rank queries dispatch to one kernel per host, so the test above
    // reaches only that one. Here every block kernel is checked
    // directly against lane counts: the portable one everywhere, the
    // VPOPCNTDQ ones where the CPU has them (pairs at every offset).
    using namespace packed_detail;
    Rng rng(59);
    uint64_t simd_checks = 0;
    for (int it = 0; it < 48; ++it) {
        alignas(32) uint64_t data[4] = {};
        uint8_t codes[kBlockSymbols];
        for (uint64_t j = 0; j < kBlockSymbols; ++j) {
            // Every fourth block is one code throughout (full words).
            codes[j] = static_cast<uint8_t>(it % 4 == 0 ? it / 4 % 4
                                                        : rng.pick(4));
            data[j / kWordSymbols] |= uint64_t{codes[j]}
                << (2 * (j % kWordSymbols));
        }
        // lanes[off][c] = lanes of code c among the first off.
        std::array<std::array<uint64_t, 4>, kBlockSymbols + 1> lanes{};
        for (uint64_t j = 0; j < kBlockSymbols; ++j) {
            lanes[j + 1] = lanes[j];
            ++lanes[j + 1][codes[j]];
        }
        const auto same = [&](const uint64_t hits[3], uint64_t off) {
            return hits[0] == lanes[off][1] && hits[1] == lanes[off][2] &&
                hits[2] == lanes[off][3];
        };
        for (uint64_t off = 0; off < kBlockSymbols; ++off) {
            uint64_t hits[3];
            portableCounts(data, off, hits);
            ASSERT_TRUE(same(hits, off)) << "block " << it << ", off " << off;
            for (uint8_t code = 0; code < 4; ++code)
                ASSERT_EQ(portableCount(data, off, code), lanes[off][code])
                    << "block " << it << ", off " << off;
#ifdef SEEDEX_RANK_SIMD
            if (!kHaveVpopcnt)
                continue;
            classifyCounts(data, off, hits);
            ASSERT_TRUE(same(hits, off)) << "block " << it << ", off " << off;
            for (uint8_t code = 0; code < 4; ++code)
                ASSERT_EQ(classifyCount(data, off, code), lanes[off][code])
                    << "block " << it << ", off " << off;
            for (uint64_t off_b = off; off_b < kBlockSymbols; ++off_b) {
                uint64_t hits_b[3];
                classifyCountsPair(data, off, off_b, hits, hits_b);
                ASSERT_TRUE(same(hits, off) && same(hits_b, off_b))
                    << "block " << it << ", pair " << off << ", " << off_b;
                ++simd_checks;
            }
#endif
        }
    }
    std::cout << "[          ] VPOPCNTDQ kernels "
              << (simd_checks > 0 ? "checked" : "not available here")
              << "\n";
}

class SeedingDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(4242);
        ref_ = referenceWithNRuns(rng, 6000);
        index_ = std::make_unique<FmdIndex>(ref_);
    }

    Sequence ref_;
    std::unique_ptr<FmdIndex> index_;
};

// --------------------------------------------------------- interval layer

TEST_F(SeedingDifferential, MatchIntervalsAgreeAcrossLayouts)
{
    // The packed index against the byte-per-symbol reference layout.
    const ReferenceIndex oracle(ref_);
    Rng rng(11);
    std::vector<Sequence> patterns;
    // Sentinel-adjacent spans: the very start and end of the reference
    // (whose suffixes neighbor the $ row in the BWT matrix).
    patterns.push_back(ref_.slice(0, 12));
    patterns.push_back(ref_.slice(ref_.size() - 12, 12));
    for (int it = 0; it < 200; ++it) {
        const size_t len = 1 + rng.pick(24);
        patterns.push_back(sampleRead(rng, ref_, len));
    }
    // Spans over each N run, as the index text holds them (N as A).
    const Sequence text = indexText(ref_);
    for (size_t i = 1; i < ref_.size(); ++i)
        if (ref_[i] >= kNumBases && ref_[i - 1] < kNumBases)
            patterns.push_back(text.slice(i - 1, 16));
    size_t checked = 0, present = 0;
    for (const Sequence &p : patterns) {
        if (!isClean(p))
            continue; // match() requires resolved bases
        const FmdInterval want = oracle.match(p);
        EXPECT_EQ(index_->match(p), want) << p.toString();
        ++checked;
        present += !want.empty();
    }
    // Both present and absent patterns were compared.
    EXPECT_GT(present, 0u);
    EXPECT_LT(present, checked);
}

TEST_F(SeedingDifferential, LocateAgreesAcrossLayouts)
{
    // The packed index's locate walks against the full suffix array.
    const ReferenceIndex oracle(ref_);
    const Sequence text = indexText(ref_);
    Rng rng(13);
    for (int it = 0; it < 100; ++it) {
        const size_t len = 6 + rng.pick(14);
        const Sequence p = ref_.slice(rng.pick(ref_.size() - len), len);
        if (isClean(p))
            expectMatchAndLocate(*index_, oracle, p, "reference slice");
    }
    // Short patterns occur many times (up to the 64-hit cap), and the
    // spans over N runs match where the index text holds A.
    for (int it = 0; it < 100; ++it) {
        const size_t len = 2 + rng.pick(5);
        expectMatchAndLocate(*index_, oracle,
                             text.slice(rng.pick(text.size() - len), len),
                             "short text slice");
    }
    for (size_t i = 1; i < ref_.size(); ++i)
        if (ref_[i] >= kNumBases && ref_[i - 1] < kNumBases)
            expectMatchAndLocate(*index_, oracle, text.slice(i - 1, 16),
                                 "N run at " + std::to_string(i));
}

// ------------------------------------------------- text path vs rank oracle

/**
 * The rank-only bwt_smem1: every forward and backward step, unique or
 * not, is a BWT extension. It is the reference the text path of both
 * drivers must reproduce.
 */
int
oracleSmem1(const FmdIndex &index, const Sequence &query, int x,
            uint64_t min_intv, std::vector<Smem> &out)
{
    const int len = static_cast<int>(query.size());
    if (query[x] >= kNumBases)
        return x + 1;
    std::vector<FmdInterval> curr, prev;
    FmdInterval ik = index.init(query[x]);
    ik.info = static_cast<uint64_t>(x) + 1;
    int i;
    for (i = x + 1; i < len; ++i) {
        if (query[i] >= kNumBases) {
            curr.push_back(ik);
            break;
        }
        const FmdInterval ok = index.extend(ik, query[i], false);
        if (ok.s != ik.s) {
            curr.push_back(ik);
            if (ok.s < min_intv)
                break;
        }
        ik = ok;
        ik.info = static_cast<uint64_t>(i) + 1;
    }
    if (i == len)
        curr.push_back(ik);
    std::reverse(curr.begin(), curr.end());
    const int ret = static_cast<int>(curr.front().info);
    std::swap(curr, prev);

    const size_t pivot_start = out.size();
    for (i = x - 1; i >= -1; --i) {
        const Base c = i < 0 ? kBaseN : query[i];
        curr.clear();
        for (const FmdInterval &p : prev) {
            FmdInterval ok;
            if (c < kNumBases)
                ok = index.extend(p, c, true);
            if (c >= kNumBases || ok.s < min_intv) {
                if (curr.empty() && (out.size() == pivot_start ||
                                     i + 1 < out.back().qbeg)) {
                    Smem smem;
                    smem.qbeg = i + 1;
                    smem.qend = static_cast<int>(p.info);
                    smem.interval = p;
                    out.push_back(smem);
                }
            } else if (curr.empty() || ok.s != curr.back().s) {
                ok.info = p.info;
                curr.push_back(ok);
            }
        }
        if (curr.empty())
            break;
        std::swap(curr, prev);
    }
    return ret;
}

std::vector<Smem>
oracleSmems(const FmdIndex &index, const Sequence &query, int min_seed_len,
            uint64_t min_intv)
{
    std::vector<Smem> out;
    for (int x = 0; x < static_cast<int>(query.size());)
        x = oracleSmem1(index, query, x, min_intv, out);
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Smem &m) {
                                 return m.length() < min_seed_len;
                             }),
              out.end());
    std::sort(out.begin(), out.end(), [](const Smem &a, const Smem &b) {
        return a.qbeg != b.qbeg ? a.qbeg < b.qbeg : a.qend < b.qend;
    });
    return out;
}

/** Seeds of the oracle SMEMs: every hit is a locate walk of one BWT row,
 *  converted to a strand and forward position here, independently of
 *  FmdIndex::hitAt. */
std::vector<Seed>
oracleSeeds(const FmdIndex &index, const Sequence &read,
            const SeedingParams &params)
{
    const uint64_t L = index.referenceLength();
    const int read_len = static_cast<int>(read.size());
    std::vector<Seed> seeds;
    for (const Smem &smem :
         oracleSmems(index, read, params.min_seed_len, 1)) {
        if (smem.interval.s > params.max_occurrences)
            continue;
        const uint64_t n =
            std::min<uint64_t>(smem.interval.s, params.max_hits);
        for (uint64_t r = 0; r < n; ++r) {
            const uint64_t pos = index.suffixToText(smem.interval.k + r);
            Seed seed;
            seed.len = smem.length();
            seed.reverse = pos >= L;
            seed.rbeg = seed.reverse
                ? 2 * L - pos - static_cast<uint64_t>(seed.len)
                : pos;
            seed.occurrences = smem.interval.s;
            seed.qbeg = seed.reverse ? read_len - smem.qend : smem.qbeg;
            seeds.push_back(seed);
        }
    }
    std::sort(seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
        if (a.reverse != b.reverse)
            return !a.reverse;
        if (a.rbeg != b.rbeg)
            return a.rbeg < b.rbeg;
        return a.qbeg < b.qbeg;
    });
    return seeds;
}

/** What the located SMEMs of a comparison covered. */
struct TextCoverage
{
    uint64_t located = 0;
    uint64_t junction = 0;  ///< occurrence spans T[L-1], T[L]
    uint64_t text_start = 0; ///< occurrence starts at T[0]
    uint64_t text_end = 0;  ///< occurrence ends at the sentinel
};

/** Expect `got` to equal the oracle's SMEMs: same spans, counts and
 *  interval ends; a located SMEM is unique and sits where the oracle's
 *  interval locates, anything else carries the oracle's interval. */
void
expectMatchesOracle(const FmdIndex &index, const std::vector<Smem> &got,
                    const std::vector<Smem> &want, const std::string &ctx,
                    TextCoverage &cov)
{
    ASSERT_EQ(got.size(), want.size()) << ctx;
    const uint64_t L = index.referenceLength();
    for (size_t m = 0; m < got.size(); ++m) {
        const Smem &g = got[m];
        const Smem &w = want[m];
        EXPECT_EQ(g.qbeg, w.qbeg) << ctx << ", smem " << m;
        EXPECT_EQ(g.qend, w.qend) << ctx << ", smem " << m;
        EXPECT_EQ(g.interval.s, w.interval.s) << ctx << ", smem " << m;
        EXPECT_EQ(g.interval.info, w.interval.info) << ctx;
        if (!g.located()) {
            EXPECT_EQ(g.interval, w.interval) << ctx << ", smem " << m;
            continue;
        }
        ASSERT_EQ(w.interval.s, 1u) << ctx << ", smem " << m;
        EXPECT_EQ(g.interval.k, 0u) << ctx;
        EXPECT_EQ(g.interval.l, 0u) << ctx;
        EXPECT_EQ(g.text_pos, index.suffixToText(w.interval.k))
            << ctx << ", smem " << m;
        const uint64_t end = g.text_pos + static_cast<uint64_t>(g.length());
        ++cov.located;
        cov.junction += g.text_pos < L && end > L;
        cov.text_start += g.text_pos == 0;
        cov.text_end += end == 2 * L;
    }
}

void
expectSameSeeds(const std::vector<Seed> &got, const std::vector<Seed> &want,
                const std::string &ctx)
{
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (size_t s = 0; s < got.size(); ++s) {
        EXPECT_EQ(got[s].qbeg, want[s].qbeg) << ctx << ", seed " << s;
        EXPECT_EQ(got[s].len, want[s].len) << ctx << ", seed " << s;
        EXPECT_EQ(got[s].rbeg, want[s].rbeg) << ctx << ", seed " << s;
        EXPECT_EQ(got[s].reverse, want[s].reverse) << ctx << ", seed " << s;
        EXPECT_EQ(got[s].occurrences, want[s].occurrences) << ctx;
    }
}

Base
randomBase(Rng &rng)
{
    return static_cast<Base>(rng.pick(4));
}

/**
 * Reads that put the text path at its edges: windows across the strand
 * junction (the reference's last bases, then the first bases of its
 * reverse complement), at both reference ends with one foreign base
 * beyond (so a unique match runs into T[0] or the sentinel), exact
 * windows of either strand, some with a mismatch, plus the usual
 * sampled reads with mismatches and Ns.
 */
std::vector<Sequence>
textPathReads(Rng &rng, const Sequence &ref, int count)
{
    const Sequence text = indexText(ref);
    const size_t L = ref.size();
    std::vector<Sequence> reads;
    for (int it = 0; it < count; ++it) {
        const size_t len = 24 + rng.pick(90);
        Sequence read;
        switch (it % 5) {
          case 0: { // across the strand junction
            const size_t a = 1 + rng.pick(len - 1);
            read = text.slice(L - a, len);
            break;
          }
          case 1: // the reference start, one foreign base before it
            read.push_back(randomBase(rng));
            read.append(text.slice(0, len));
            break;
          case 2: // the text end (the sentinel follows)
            read = text.slice(2 * L - len, len);
            read.push_back(randomBase(rng));
            break;
          case 3: // exact window of either strand
            read = text.slice(rng.pick(2 * L - len), len);
            break;
          default:
            read = sampleRead(rng, ref, len);
            break;
        }
        if (it % 5 != 4 && rng.coin(0.3)) {
            const size_t at = rng.pick(read.size());
            read[at] = static_cast<Base>((read[at] + 1 + rng.pick(3)) % 4);
        }
        reads.push_back(read);
    }
    return reads;
}

// ------------------------------------------------------------- SMEM layer

TEST_F(SeedingDifferential, SmemsIdenticalAcrossAllConfigurations)
{
    Rng rng(17);
    SmemWorkspace ws;
    std::vector<const Sequence *> queries;
    std::vector<Sequence> reads;
    for (int it = 0; it < 48; ++it)
        reads.push_back(sampleRead(rng, ref_, 40 + rng.pick(80)));
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Smem>> batch_out(reads.size());
    collectSmemsBatch(*index_, queries.data(), queries.size(), 12, 1, ws,
                      batch_out);

    TextCoverage cov;
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto want = oracleSmems(*index_, reads[r], 12, 1);
        const auto scalar = collectSmems(*index_, reads[r], 12);
        const std::string ctx = "read " + std::to_string(r);
        expectMatchesOracle(*index_, scalar, want, "scalar, " + ctx, cov);
        expectMatchesOracle(*index_, batch_out[r], want, "batch, " + ctx,
                            cov);
        EXPECT_EQ(batch_out[r], scalar) << ctx;
    }
}

TEST_F(SeedingDifferential, ShortReadsMatchRankOracle)
{
    // Reads of 1..8 bases: the forward sweep runs into the read end
    // within a few steps, often before the match is unique.
    Rng rng(19);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(1);
    for (int it = 0; it < 120; ++it) {
        const Sequence read = sampleRead(rng, ref_, 1 + rng.pick(8));
        const auto want = oracleSmems(*index_, read, 2, 1);
        const std::string ctx = "read " + read.toString();
        TextCoverage cov;
        expectMatchesOracle(*index_, collectSmems(*index_, read, 2), want,
                            "scalar, " + ctx, cov);
        const Sequence *q = &read;
        collectSmemsBatch(*index_, &q, 1, 2, 1, ws, batch_out);
        expectMatchesOracle(*index_, batch_out[0], want, "batch, " + ctx,
                            cov);
    }
}

TEST_F(SeedingDifferential, TextPathSmemsMatchRankOracle)
{
    Rng rng(41);
    const std::vector<Sequence> reads = textPathReads(rng, ref_, 400);
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out;
    const FmdIndex &index = *index_;
    for (const uint64_t min_intv : {uint64_t{1}, uint64_t{2}}) {
        const std::string cfg = "min_intv=" + std::to_string(min_intv);
        const uint64_t steps0 = FmdIndex::threadCounters().text_steps;
        TextCoverage cov;
        batch_out.assign(reads.size(), {});
        collectSmemsBatch(index, queries.data(), queries.size(), 1,
                          min_intv, ws, batch_out);
        for (size_t r = 0; r < reads.size(); ++r) {
            const auto want = oracleSmems(index, reads[r], 1, min_intv);
            expectMatchesOracle(
                index, collectSmems(index, reads[r], 1, min_intv), want,
                cfg + ", scalar, read " + std::to_string(r), cov);
            expectMatchesOracle(index, batch_out[r], want,
                                cfg + ", batch, read " + std::to_string(r),
                                cov);
        }
        const uint64_t steps =
            FmdIndex::threadCounters().text_steps - steps0;
        if (min_intv == 1) {
            // Every edge the path has must actually be exercised.
            EXPECT_GT(steps, 0u) << cfg;
            EXPECT_GT(cov.junction, 0u) << cfg;
            EXPECT_GT(cov.text_start, 0u) << cfg;
            EXPECT_GT(cov.text_end, 0u) << cfg;
        } else {
            EXPECT_EQ(cov.located, 0u) << cfg;
            EXPECT_EQ(steps, 0u) << cfg;
        }
    }
}

TEST_F(SeedingDifferential, BothDriversIssueTheSameIndexQueries)
{
    // bench_seed compares the two drivers as doing the same work: the
    // batch driver's lockstep rounds and its per-round locate steps
    // must issue exactly the scalar driver's occ queries (LF steps
    // included) and text steps. A walk that skips or repeats a step,
    // or locates a match twice, shows here.
    Rng rng(53);
    std::vector<Sequence> reads;
    for (int it = 0; it < 64; ++it)
        reads.push_back(sampleRead(rng, ref_, 40 + rng.pick(80)));
    for (Sequence &read : textPathReads(rng, ref_, 200))
        reads.push_back(std::move(read));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    SmemWorkspace ws;
    std::vector<Smem> one;
    std::vector<std::vector<Smem>> batch(reads.size());
    const FmdThreadCounters &counters = FmdIndex::threadCounters();
    for (const uint64_t min_intv : {uint64_t{1}, uint64_t{2}}) {
        SCOPED_TRACE("min_intv=" + std::to_string(min_intv));
        const FmdThreadCounters before = counters;
        for (const Sequence &read : reads)
            collectSmemsInto(*index_, read, 12, min_intv, ws, one);
        const FmdThreadCounters scalar = counters;
        collectSmemsBatch(*index_, queries.data(), queries.size(), 12,
                          min_intv, ws, batch);
        const FmdThreadCounters after = counters;
        EXPECT_EQ(after.occ_calls - scalar.occ_calls,
                  scalar.occ_calls - before.occ_calls);
        EXPECT_EQ(after.text_steps - scalar.text_steps,
                  scalar.text_steps - before.text_steps);
        // min_intv = 1 locates unique matches; 2 never leaves the BWT.
        EXPECT_EQ(scalar.text_steps > before.text_steps, min_intv == 1);
    }
}

TEST_F(SeedingDifferential, TextPathSeedsMatchRankOracle)
{
    Rng rng(43);
    SeedingParams params;
    params.min_seed_len = 12;
    const std::vector<Sequence> reads = textPathReads(rng, ref_, 150);
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    SeedWorkspace ws;
    std::vector<std::vector<Seed>> batch_out(reads.size());
    collectSeedsBatch(*index_, queries.data(), queries.size(), params, ws,
                      batch_out);
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto want = oracleSeeds(*index_, reads[r], params);
        const std::string ctx = "read " + std::to_string(r);
        expectSameSeeds(batch_out[r], want, "batch, " + ctx);
        expectSameSeeds(collectSeeds(*index_, reads[r], params), want,
                        "scalar, " + ctx);
    }
}

TEST(SeedingTextPath, TinyReferencesMatchRankOracle)
{
    // On a few dozen bases a single symbol can already be unique, so
    // the text path starts at the pivot's first base, and most matches
    // run into a reference end or the junction. With min_intv = 2 such
    // a unique first base must still stay on the BWT. Every read is
    // also matched and located against the reference index.
    Rng rng(47);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(1);
    for (int g = 0; g < 60; ++g) {
        Sequence ref;
        const size_t len = 2 + rng.pick(40);
        for (size_t i = 0; i < len; ++i)
            ref.push_back(rng.coin(0.05) ? kBaseN : randomBase(rng));
        const FmdIndex index(ref);
        const ReferenceIndex oracle(ref);
        const Sequence text = indexText(ref);
        for (int it = 0; it < 20; ++it) {
            const size_t rlen = 1 + rng.pick(text.size());
            Sequence read = text.slice(rng.pick(text.size() - rlen + 1),
                                       rlen);
            if (rng.coin(0.5))
                read.push_back(randomBase(rng));
            expectMatchAndLocate(index, oracle, read,
                                 "ref " + ref.toString());
            for (const uint64_t min_intv : {uint64_t{1}, uint64_t{2}}) {
                TextCoverage cov;
                const auto want = oracleSmems(index, read, 1, min_intv);
                const std::string ctx = "ref " + ref.toString() +
                    ", read " + read.toString() +
                    ", min_intv=" + std::to_string(min_intv);
                expectMatchesOracle(index,
                                    collectSmems(index, read, 1, min_intv),
                                    want, ctx + ", scalar", cov);
                const Sequence *q = &read;
                collectSmemsBatch(index, &q, 1, 1, min_intv, ws, batch_out);
                expectMatchesOracle(index, batch_out[0], want,
                                    ctx + ", batch", cov);
                if (min_intv == 2) {
                    EXPECT_EQ(cov.located, 0u) << ctx;
                }
            }
        }
    }
}

// ------------------------------------------------------------- seed layer

TEST_F(SeedingDifferential, SeedBatchMatchesScalarSeeds)
{
    Rng rng(23);
    SeedingParams params;
    params.min_seed_len = 15;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 33; ++it) // deliberately not a batch multiple
        reads.push_back(sampleRead(rng, ref_, 101));

    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> batch_out(reads.size());
    collectSeedsBatch(*index_, queries.data(), queries.size(), params, ws,
                      batch_out);
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto scalar = collectSeeds(*index_, reads[r], params);
        EXPECT_EQ(batch_out[r].size(), scalar.size()) << "read " << r;
        for (size_t s = 0;
             s < std::min(batch_out[r].size(), scalar.size()); ++s) {
            EXPECT_EQ(batch_out[r][s].qbeg, scalar[s].qbeg);
            EXPECT_EQ(batch_out[r][s].len, scalar[s].len);
            EXPECT_EQ(batch_out[r][s].rbeg, scalar[s].rbeg);
            EXPECT_EQ(batch_out[r][s].reverse, scalar[s].reverse);
            EXPECT_EQ(batch_out[r][s].occurrences,
                      scalar[s].occurrences);
        }
        // And the rank-only oracle produces the same seeds.
        expectSameSeeds(scalar, oracleSeeds(*index_, reads[r], params),
                        "read " + std::to_string(r));
    }
}

// ---------------------------------------------------------- serialization

TEST_F(SeedingDifferential, SerializationRoundTrips)
{
    Rng rng(29);
    const FmdIndex &index = *index_;
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    const std::string bytes = ss.str();
    std::stringstream wrong(bytes);
    EXPECT_EQ(FmdIndex::load(wrong, ref_.slice(1, ref_.size())), nullptr)
        << "a reference of the wrong length must be rejected";
    const auto loaded = FmdIndex::load(ss, ref_);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->storageBytes(), index.storageBytes());
    EXPECT_EQ(loaded->referenceLength(), index.referenceLength());
    for (int it = 0; it < 40; ++it) {
        const size_t len = 8 + rng.pick(12);
        const Sequence p = ref_.slice(rng.pick(ref_.size() - len), len);
        if (!isClean(p))
            continue;
        const FmdInterval want = index.match(p);
        EXPECT_EQ(loaded->match(p), want);
        if (!want.empty()) {
            EXPECT_EQ(loaded->locate(want, 64, len),
                      index.locate(want, 64, len));
        }
    }
    const Sequence read = sampleRead(rng, ref_, 101);
    EXPECT_EQ(collectSmems(*loaded, read, 12), collectSmems(index, read, 12));
}

/** Offset of the layout byte in a saved index stream (after the magic
 *  and the version; see FmdIndex::save). */
constexpr size_t kLayoutByteAt = 8 + 4;

/** Offsets of the element-count fields of the arrays in a saved index
 *  stream, in stream order (see FmdIndex::save). */
std::vector<size_t>
arrayCountOffsets(const std::string &bytes)
{
    // magic, version, layout, ref_len, text_len, primary, counts_[6].
    size_t at = kLayoutByteAt + 1 + 8 + 8 + 8 + 6 * 8;
    std::vector<size_t> offsets;
    // sa_mark words, SA samples, packed blocks, exceptions.
    for (const size_t elem : {8, 4, 64, 8}) {
        uint64_t n = 0;
        std::memcpy(&n, bytes.data() + at, sizeof(n));
        offsets.push_back(at);
        at += sizeof(n) + n * elem;
    }
    return offsets;
}

TEST(SeedingSerialization, RejectsMalformedStreams)
{
    const Sequence ref = Sequence::fromString("ACGTACGTTGCA");
    std::stringstream empty;
    EXPECT_EQ(FmdIndex::load(empty, ref), nullptr);
    std::stringstream garbage("not an index at all, not even close");
    EXPECT_EQ(FmdIndex::load(garbage, ref), nullptr);

    // Every array's count must be exactly the size the text length
    // implies: one more or one fewer element is rejected before the
    // array is sized.
    Rng rng(33);
    ReferenceParams params;
    params.length = 700;
    const Sequence longer = generateReference(params, rng);
    const FmdIndex index(longer);
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    const std::string bytes = ss.str();
    std::stringstream intact(bytes);
    ASSERT_NE(FmdIndex::load(intact, longer), nullptr);
    for (const size_t at : arrayCountOffsets(bytes)) {
        for (const int64_t delta : {int64_t{1}, int64_t{-1}}) {
            std::string bad = bytes;
            uint64_t n = 0;
            std::memcpy(&n, bad.data() + at, sizeof(n));
            n += static_cast<uint64_t>(delta);
            std::memcpy(bad.data() + at, &n, sizeof(n));
            std::stringstream in(bad);
            EXPECT_EQ(FmdIndex::load(in, longer), nullptr)
                << "count at " << at << " off by " << delta;
        }
    }
}

TEST(SeedingSerialization, NaiveLayoutByteRejected)
{
    // The layout byte must read 1, the packed layout. A stream that
    // claims the deleted byte-per-symbol layout (0), or any other, is
    // rejected even when the rest of it is an intact packed index.
    Rng rng(35);
    ReferenceParams params;
    params.length = 700;
    const Sequence ref = generateReference(params, rng);
    const FmdIndex index(ref);
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    const std::string bytes = ss.str();
    ASSERT_EQ(bytes[kLayoutByteAt], 1);
    for (const char layout : {0, 2}) {
        std::string bad = bytes;
        bad[kLayoutByteAt] = layout;
        std::stringstream in(bad);
        EXPECT_EQ(FmdIndex::load(in, ref), nullptr)
            << "layout byte " << int(layout);
    }
}

TEST(SeedingSerialization, OversizedCountRejectedBeforeAllocation)
{
    // A packed-block count of T blocks (inside a T + 64 element cap, far
    // above the T/128 + 1 the text length implies) must be rejected
    // before the block array is sized: load() allocates nothing near
    // T * 64 bytes.
    Rng rng(34);
    ReferenceParams params;
    params.length = 700;
    const Sequence ref = generateReference(params, rng);
    const FmdIndex index(ref);
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    std::string bytes = ss.str();
    const uint64_t text_len = 2 * ref.size() + 1;
    const size_t blocks_at = arrayCountOffsets(bytes)[2];
    std::memcpy(bytes.data() + blocks_at, &text_len, sizeof(text_len));
    std::stringstream in(bytes);
    g_largest_new.store(0, std::memory_order_relaxed);
    EXPECT_EQ(FmdIndex::load(in, ref), nullptr);
    EXPECT_LT(g_largest_new.load(std::memory_order_relaxed), text_len * 8);
}

TEST(SeedingSerialization, HugePageArraysRoundTrip)
{
    // At 2.1 Mbp the BWT blocks and the SA samples pass 2 MiB, so the
    // built and the loaded index both hold them in mapped, huge-page
    // advised memory (HugePageAllocator's large path; the smaller
    // arrays stay on operator new). The loaded index must still give
    // the rank oracle's SMEMs, on both drivers.
    Rng rng(59);
    ReferenceParams params;
    params.length = 2100000;
    const Sequence ref = generateReference(params, rng);
    const uint64_t T = 2 * ref.size() + 1;
    ASSERT_GE((T / PackedBwt::kBlockSymbols + 1) * 64, kHugePageBytes);
    ASSERT_GE(((T - 1) / FmdIndex::kSaStep + 1) * sizeof(int32_t),
              kHugePageBytes);
    const FmdIndex index(ref);
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    const auto loaded = FmdIndex::load(ss, ref);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->storageBytes(), index.storageBytes());

    std::vector<Sequence> reads;
    for (int it = 0; it < 48; ++it)
        reads.push_back(sampleRead(rng, ref, 101));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(reads.size());
    collectSmemsBatch(*loaded, queries.data(), queries.size(), 19, 1, ws,
                      batch_out);
    TextCoverage cov;
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto want = oracleSmems(index, reads[r], 19, 1);
        const std::string ctx = "read " + std::to_string(r);
        expectMatchesOracle(index, collectSmems(*loaded, reads[r], 19),
                            want, "scalar, " + ctx, cov);
        expectMatchesOracle(index, batch_out[r], want, "batch, " + ctx,
                            cov);
    }
    EXPECT_GT(cov.located, 0u);
}

// ------------------------------------------------------------ observability

TEST_F(SeedingDifferential, SeedInstrumentsAdvance)
{
    Rng rng(31);
    auto &registry = obs::MetricsRegistry::global();
    const auto before = registry.snapshot();
    const uint64_t occ0 = before.counterValue("seed.occ_calls");
    const uint64_t text0 = before.counterValue("seed.text_steps");

    SeedingParams params;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 8; ++it)
        reads.push_back(sampleRead(rng, ref_, 101));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> out(reads.size());
    collectSeedsBatch(*index_, queries.data(), queries.size(), params, ws,
                      out);

    const auto after = registry.snapshot();
    EXPECT_GT(after.counterValue("seed.occ_calls"), occ0);
    EXPECT_GT(after.counterValue("seed.text_steps"), text0);
    bool found_gauge = false;
    for (const auto &[name, value] : after.gauges)
        if (name == "seed.batch_size") {
            found_gauge = true;
            EXPECT_EQ(value.first,
                      static_cast<int64_t>(reads.size()));
        }
    EXPECT_TRUE(found_gauge);
    const auto *hist = after.findHistogram("seed.batch.seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_GT(hist->count, 0u);
}

// ----------------------------------------------------------- allocations

TEST_F(SeedingDifferential, SteadyStateBatchSeedingAllocatesNothing)
{
    Rng rng(37);
    SeedingParams params;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 16; ++it)
        reads.push_back(sampleRead(rng, ref_, 101));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> out(reads.size());

    // Warm-up: grow every workspace buffer (and the registry statics,
    // locate scratch, seed vectors) to the workload high-water mark.
    for (int warm = 0; warm < 2; ++warm)
        collectSeedsBatch(*index_, queries.data(), queries.size(), params,
                          ws, out);

    const uint64_t text_before = FmdIndex::threadCounters().text_steps;
    const uint64_t allocs_before =
        g_new_calls.load(std::memory_order_relaxed);
    collectSeedsBatch(*index_, queries.data(), queries.size(), params, ws,
                      out);
    const uint64_t allocs_after =
        g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(allocs_after, allocs_before)
        << "steady-state batch seeding must not touch the heap";
    // Text steps follow a locate, so the driver's locate phase ran too.
    EXPECT_GT(FmdIndex::threadCounters().text_steps, text_before);
}

} // namespace
} // namespace seedex

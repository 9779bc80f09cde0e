/**
 * @file
 * Differential validation of the high-throughput seeding stack.
 *
 * The packed popcount FM-index, the k-mer interval table, and the
 * lockstep batch drivers all promise bit-identical results with the
 * naive scalar baseline. This file fuzzes that promise across random
 * genomes with injected N runs, sentinel-adjacent patterns, and reads
 * shorter than the k-mer table depth, checks index serialization
 * round-trips and that malformed streams are rejected before anything
 * is sized from them, compares the level-order k-mer table with a
 * depth-first oracle, verifies the seed.* instruments advance, and
 * asserts the steady-state batch seeding path performs zero heap
 * allocations via global operator new/delete counting hooks.
 *
 * Unique matches extend by comparison against the index text, not by
 * rank queries. A test-local rank-only SMEM search (every step a BWT
 * extension, every hit a locate walk) is the oracle for that path: the
 * SMEM spans, occurrence counts, located positions and seeds of both
 * drivers must equal it on every layout, across the strand junction,
 * at both reference ends, and with min_intv = 2, where the text path
 * never engages.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>

#include "aligner/seeding.h"
#include "fmindex/fmd_index.h"
#include "fmindex/kmer_table.h"
#include "fmindex/smem.h"
#include "genome/reference.h"
#include "obs/metrics.h"
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
 *  itself never emits N; index construction collapses them to A, and
 *  both layouts must do so identically). */
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

/** The four index configurations the differential tests cross-check:
 *  the trusted oracle (naive layout, no k-mer table) against every
 *  acceleration axis. */
struct IndexSet
{
    FmdIndex naive_plain;
    FmdIndex packed_plain;
    FmdIndex packed_kmer;

    explicit IndexSet(const Sequence &ref)
        : naive_plain(ref, FmdIndexOptions{FmLayout::Naive, 0}),
          packed_plain(ref, FmdIndexOptions{FmLayout::Packed, 0}),
          packed_kmer(ref, FmdIndexOptions{FmLayout::Packed, 8})
    {}
};

class SeedingDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(4242);
        ref_ = referenceWithNRuns(rng, 6000);
        set_ = std::make_unique<IndexSet>(ref_);
    }

    Sequence ref_;
    std::unique_ptr<IndexSet> set_;
};

// --------------------------------------------------------- interval layer

TEST_F(SeedingDifferential, MatchIntervalsAgreeAcrossLayouts)
{
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
    for (const Sequence &p : patterns) {
        bool clean = true;
        for (size_t i = 0; i < p.size(); ++i)
            clean &= p[i] < kNumBases;
        if (!clean)
            continue; // match() requires resolved bases
        const FmdInterval want = set_->naive_plain.match(p);
        EXPECT_EQ(set_->packed_plain.match(p), want) << p.toString();
        EXPECT_EQ(set_->packed_kmer.match(p), want) << p.toString();
    }
}

TEST_F(SeedingDifferential, LocateAgreesAcrossLayouts)
{
    Rng rng(13);
    for (int it = 0; it < 100; ++it) {
        const size_t len = 6 + rng.pick(14);
        const size_t pos = rng.pick(ref_.size() - len);
        const Sequence p = ref_.slice(pos, len);
        bool clean = true;
        for (size_t i = 0; i < p.size(); ++i)
            clean &= p[i] < kNumBases;
        if (!clean)
            continue;
        const FmdInterval iv = set_->naive_plain.match(p);
        if (iv.empty())
            continue;
        const auto want = set_->naive_plain.locate(iv, 64, len);
        EXPECT_EQ(set_->packed_plain.locate(iv, 64, len), want);
        EXPECT_EQ(set_->packed_kmer.locate(iv, 64, len), want);
        // And the incremental form appends the same hits.
        std::vector<FmdHit> into;
        set_->packed_kmer.locateInto(iv, 64, len, into);
        EXPECT_EQ(into, want);
    }
}

// ------------------------------------------------------------- SMEM layer

TEST_F(SeedingDifferential, SmemsIdenticalAcrossAllConfigurations)
{
    Rng rng(17);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out;
    std::vector<const Sequence *> queries;
    std::vector<Sequence> reads;
    for (int it = 0; it < 48; ++it)
        reads.push_back(sampleRead(rng, ref_, 40 + rng.pick(80)));

    // Oracle: scalar path on the naive, table-free index.
    std::vector<std::vector<Smem>> want;
    for (const Sequence &read : reads)
        want.push_back(collectSmems(set_->naive_plain, read, 12));

    for (const FmdIndex *index :
         {&set_->packed_plain, &set_->packed_kmer}) {
        for (size_t r = 0; r < reads.size(); ++r)
            EXPECT_EQ(collectSmems(*index, reads[r], 12), want[r])
                << "scalar, read " << r;
        queries.clear();
        for (const Sequence &read : reads)
            queries.push_back(&read);
        batch_out.assign(reads.size(), {});
        collectSmemsBatch(*index, queries.data(), queries.size(), 12, 1,
                          ws, batch_out);
        for (size_t r = 0; r < reads.size(); ++r)
            EXPECT_EQ(batch_out[r], want[r]) << "batch, read " << r;
    }
}

TEST_F(SeedingDifferential, ReadsShorterThanTableDepthAgree)
{
    // packed_kmer has k = 8: reads of length 1..8 exercise the
    // table-only forward sweep (and the lookup's length clamp).
    Rng rng(19);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(1);
    for (int it = 0; it < 120; ++it) {
        const Sequence read = sampleRead(rng, ref_, 1 + rng.pick(8));
        const auto want = collectSmems(set_->naive_plain, read, 2);
        EXPECT_EQ(collectSmems(set_->packed_kmer, read, 2), want);
        const Sequence *q = &read;
        collectSmemsBatch(set_->packed_kmer, &q, 1, 2, 1, ws, batch_out);
        EXPECT_EQ(batch_out[0], want);
    }
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

TEST_F(SeedingDifferential, TextPathSmemsMatchRankOracle)
{
    Rng rng(41);
    const std::vector<Sequence> reads = textPathReads(rng, ref_, 400);
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out;
    const std::pair<const char *, const FmdIndex *> indexes[] = {
        {"naive", &set_->naive_plain},
        {"packed", &set_->packed_plain},
        {"packed+kmer", &set_->packed_kmer},
    };
    for (const auto &[name, index] : indexes) {
        for (const uint64_t min_intv : {uint64_t{1}, uint64_t{2}}) {
            const std::string cfg = std::string(name) +
                ", min_intv=" + std::to_string(min_intv);
            const uint64_t steps0 = FmdIndex::threadCounters().text_steps;
            TextCoverage cov;
            batch_out.assign(reads.size(), {});
            collectSmemsBatch(*index, queries.data(), queries.size(), 1,
                              min_intv, ws, batch_out);
            for (size_t r = 0; r < reads.size(); ++r) {
                const auto want = oracleSmems(*index, reads[r], 1, min_intv);
                expectMatchesOracle(
                    *index, collectSmems(*index, reads[r], 1, min_intv),
                    want, cfg + ", scalar, read " + std::to_string(r), cov);
                expectMatchesOracle(*index, batch_out[r], want,
                                    cfg + ", batch, read " +
                                        std::to_string(r),
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
    for (const FmdIndex *index : {&set_->naive_plain, &set_->packed_plain,
                                  &set_->packed_kmer}) {
        collectSeedsBatch(*index, queries.data(), queries.size(), params,
                          ws, batch_out);
        for (size_t r = 0; r < reads.size(); ++r) {
            const auto want = oracleSeeds(*index, reads[r], params);
            const std::string ctx = "read " + std::to_string(r);
            expectSameSeeds(batch_out[r], want, "batch, " + ctx);
            expectSameSeeds(collectSeeds(*index, reads[r], params), want,
                            "scalar, " + ctx);
        }
    }
}

TEST(SeedingTextPath, TinyReferencesMatchRankOracle)
{
    // On a few dozen bases a single symbol can already be unique, so
    // the text path starts at the pivot's first base, and most matches
    // run into a reference end or the junction. With min_intv = 2 such
    // a unique first base must still stay on the BWT.
    Rng rng(47);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(1);
    for (int g = 0; g < 60; ++g) {
        Sequence ref;
        const size_t len = 2 + rng.pick(40);
        for (size_t i = 0; i < len; ++i)
            ref.push_back(rng.coin(0.05) ? kBaseN : randomBase(rng));
        const FmdIndex naive(ref, FmdIndexOptions{FmLayout::Naive, 0});
        const FmdIndex packed(ref, FmdIndexOptions{FmLayout::Packed, -1});
        const Sequence text = indexText(ref);
        for (int it = 0; it < 20; ++it) {
            const size_t rlen = 1 + rng.pick(text.size());
            Sequence read = text.slice(rng.pick(text.size() - rlen + 1),
                                       rlen);
            if (rng.coin(0.5))
                read.push_back(randomBase(rng));
            for (const FmdIndex *index : {&naive, &packed}) {
                for (const uint64_t min_intv : {uint64_t{1}, uint64_t{2}}) {
                    TextCoverage cov;
                    const auto want = oracleSmems(*index, read, 1, min_intv);
                    const std::string ctx = "ref " + ref.toString() +
                        ", read " + read.toString() +
                        ", min_intv=" + std::to_string(min_intv);
                    expectMatchesOracle(
                        *index, collectSmems(*index, read, 1, min_intv),
                        want, ctx + ", scalar", cov);
                    const Sequence *q = &read;
                    collectSmemsBatch(*index, &q, 1, 1, min_intv, ws,
                                      batch_out);
                    expectMatchesOracle(*index, batch_out[0], want,
                                        ctx + ", batch", cov);
                    if (min_intv == 2) {
                        EXPECT_EQ(cov.located, 0u) << ctx;
                    }
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
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, batch_out);
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto scalar =
            collectSeeds(set_->packed_kmer, reads[r], params);
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
        // And the naive oracle produces the same seeds.
        EXPECT_EQ(collectSeeds(set_->naive_plain, reads[r], params).size(),
                  scalar.size());
    }
}

// ---------------------------------------------------------- serialization

TEST_F(SeedingDifferential, SerializationRoundTripsBothLayouts)
{
    Rng rng(29);
    for (const FmdIndex *index :
         {&set_->naive_plain, &set_->packed_kmer}) {
        std::stringstream ss;
        ASSERT_TRUE(index->save(ss));
        const int k = index->kmerTable() ? index->kmerTable()->k() : 0;
        const std::string bytes = ss.str();
        std::stringstream wrong(bytes);
        EXPECT_EQ(FmdIndex::load(wrong, ref_.slice(1, ref_.size()), k),
                  nullptr)
            << "a reference of the wrong length must be rejected";
        const auto loaded = FmdIndex::load(ss, ref_, k);
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(loaded->storageBytes(), index->storageBytes());
        EXPECT_EQ(loaded->layout(), index->layout());
        EXPECT_EQ(loaded->referenceLength(), index->referenceLength());
        for (int it = 0; it < 40; ++it) {
            const size_t len = 8 + rng.pick(12);
            const size_t pos = rng.pick(ref_.size() - len);
            const Sequence p = ref_.slice(pos, len);
            bool clean = true;
            for (size_t i = 0; i < p.size(); ++i)
                clean &= p[i] < kNumBases;
            if (!clean)
                continue;
            const FmdInterval want = index->match(p);
            EXPECT_EQ(loaded->match(p), want);
            if (!want.empty())
                EXPECT_EQ(loaded->locate(want, 64, len),
                          index->locate(want, 64, len));
        }
        const Sequence read = sampleRead(rng, ref_, 101);
        EXPECT_EQ(collectSmems(*loaded, read, 12),
                  collectSmems(*index, read, 12));
    }
}

/** Offsets of the element-count fields of the arrays in a saved index
 *  stream, in stream order (see FmdIndex::save). */
std::vector<size_t>
arrayCountOffsets(const std::string &bytes, FmLayout layout)
{
    // magic, version, layout, ref_len, text_len, primary, counts_[6].
    size_t at = 8 + 4 + 1 + 8 + 8 + 8 + 6 * 8;
    const std::vector<size_t> elem_bytes = layout == FmLayout::Packed
        ? std::vector<size_t>{8, 4, 64, 8} // sa_mark, samples, blocks, exc
        : std::vector<size_t>{8, 4, 1};    // sa_mark, samples, bwt
    std::vector<size_t> offsets;
    for (const size_t elem : elem_bytes) {
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
    // array is sized, on either layout.
    Rng rng(33);
    ReferenceParams params;
    params.length = 700;
    const Sequence longer = generateReference(params, rng);
    for (const FmLayout layout : {FmLayout::Packed, FmLayout::Naive}) {
        const FmdIndex index(longer, FmdIndexOptions{layout, 0});
        std::stringstream ss;
        ASSERT_TRUE(index.save(ss));
        const std::string bytes = ss.str();
        std::stringstream intact(bytes);
        ASSERT_NE(FmdIndex::load(intact, longer, 0), nullptr);
        for (const size_t at : arrayCountOffsets(bytes, layout)) {
            for (const int64_t delta : {int64_t{1}, int64_t{-1}}) {
                std::string bad = bytes;
                uint64_t n = 0;
                std::memcpy(&n, bad.data() + at, sizeof(n));
                n += static_cast<uint64_t>(delta);
                std::memcpy(bad.data() + at, &n, sizeof(n));
                std::stringstream in(bad);
                EXPECT_EQ(FmdIndex::load(in, longer, 0), nullptr)
                    << "layout " << static_cast<int>(layout)
                    << " count at " << at << " off by " << delta;
            }
        }
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
    const FmdIndex index(ref, FmdIndexOptions{FmLayout::Packed, 0});
    std::stringstream ss;
    ASSERT_TRUE(index.save(ss));
    std::string bytes = ss.str();
    const uint64_t text_len = 2 * ref.size() + 1;
    const size_t blocks_at = arrayCountOffsets(bytes, FmLayout::Packed)[2];
    std::memcpy(bytes.data() + blocks_at, &text_len, sizeof(text_len));
    std::stringstream in(bytes);
    g_largest_new.store(0, std::memory_order_relaxed);
    EXPECT_EQ(FmdIndex::load(in, ref, 0), nullptr);
    EXPECT_LT(g_largest_new.load(std::memory_order_relaxed), text_len * 8);
}

// ------------------------------------------------------------- k-mer table

/** The k-mer table as a pruned depth-first search builds it, one forward
 *  extension per child: the oracle for the level-order build. */
std::vector<std::vector<KmerTable::Entry>>
depthFirstKmerTable(const FmdIndex &index, int k)
{
    std::vector<std::vector<KmerTable::Entry>> levels(
        static_cast<size_t>(k) + 1);
    for (int l = 1; l <= k; ++l)
        levels[l].assign(size_t{1} << (2 * l), KmerTable::Entry{});
    struct Frame
    {
        FmdInterval iv;
        uint32_t code;
        int len;
    };
    std::vector<Frame> stack;
    for (Base c = 0; c < kNumBases; ++c) {
        stack.push_back({index.init(c), static_cast<uint32_t>(c), 1});
        while (!stack.empty()) {
            const Frame f = stack.back();
            stack.pop_back();
            levels[f.len][f.code] = {f.iv.k, f.iv.l, f.iv.s};
            if (f.len == k || f.iv.empty())
                continue;
            for (Base n = 0; n < kNumBases; ++n) {
                const FmdInterval child = index.extend(f.iv, n, false);
                if (child.s == 0)
                    continue;
                stack.push_back(
                    {child, f.code | (static_cast<uint32_t>(n) << (2 * f.len)),
                     f.len + 1});
            }
        }
    }
    return levels;
}

/** Compare k, l and s of every entry at every level with the oracle;
 *  returns the number of present entries. */
size_t
expectKmerTableMatchesOracle(const FmdIndex &index, const std::string &what)
{
    const KmerTable *table = index.kmerTable();
    EXPECT_NE(table, nullptr) << what;
    if (table == nullptr)
        return 0;
    const auto want = depthFirstKmerTable(index, table->k());
    size_t present = 0;
    for (int len = 1; len <= table->k(); ++len) {
        for (uint32_t code = 0; code < want[len].size(); ++code) {
            const KmerTable::Entry &got = table->lookup(code, len);
            const KmerTable::Entry &exp = want[len][code];
            EXPECT_TRUE(got.k == exp.k && got.l == exp.l && got.s == exp.s)
                << what << ": len " << len << " code " << code << " got {"
                << got.k << "," << got.l << "," << got.s << "} want {"
                << exp.k << "," << exp.l << "," << exp.s << "}";
            present += exp.s != 0;
        }
    }
    return present;
}

TEST(KmerTableBuild, LevelOrderMatchesDepthFirstOracle)
{
    Rng rng(57);
    ReferenceParams params;
    params.length = 3000;
    const Sequence plain = generateReference(params, rng);
    const Sequence with_n = referenceWithNRuns(rng, 3000);
    // Only A and T: the text ref . revcomp(ref) has no C or G either, so
    // their level-1 entries (and every code containing them) are empty.
    std::vector<Base> at_bases(2000);
    for (Base &b : at_bases)
        b = rng.coin(0.5) ? kBaseA : kBaseT;
    const Sequence at_only(std::move(at_bases));

    const std::pair<const char *, const Sequence *> refs[] = {
        {"3 kbp", &plain}, {"N runs", &with_n}, {"A/T only", &at_only}};
    for (const auto &[name, ref] : refs) {
        for (const FmLayout layout : {FmLayout::Packed, FmLayout::Naive}) {
            const FmdIndex index(*ref, FmdIndexOptions{layout, 6});
            const std::string what = std::string(name) +
                (layout == FmLayout::Packed ? " packed" : " naive");
            EXPECT_GT(expectKmerTableMatchesOracle(index, what), 0u)
                << what;
            // Level 1 holds init(c) verbatim, empty bases included.
            for (Base c = 0; c < kNumBases; ++c) {
                const FmdInterval iv = index.init(c);
                const KmerTable::Entry &e = index.kmerTable()->lookup(c, 1);
                EXPECT_TRUE(e.k == iv.k && e.l == iv.l && e.s == iv.s)
                    << what << " base " << int(c);
            }
        }
    }
    const FmdIndex at_index(at_only, FmdIndexOptions{FmLayout::Packed, 6});
    EXPECT_EQ(at_index.kmerTable()->lookup(kBaseC, 1).s, 0u);
    EXPECT_EQ(at_index.kmerTable()->lookup(kBaseG, 1).s, 0u);
}

TEST(KmerTableBuild, ExtendAllMatchesExtend)
{
    Rng rng(58);
    const Sequence ref = referenceWithNRuns(rng, 3000);
    for (const FmLayout layout : {FmLayout::Packed, FmLayout::Naive}) {
        const FmdIndex index(ref, FmdIndexOptions{layout, 0});
        for (int it = 0; it < 200; ++it) {
            const size_t len = 1 + rng.pick(6);
            const Sequence p = ref.slice(rng.pick(ref.size() - len), len);
            const FmdInterval iv = index.match(p);
            for (const bool back : {true, false}) {
                FmdInterval all[kNumBases];
                index.extendAll(iv, back, all);
                for (Base c = 0; c < kNumBases; ++c)
                    EXPECT_EQ(all[c], index.extend(iv, c, back))
                        << p.toString() << " base " << int(c) << " back "
                        << back;
            }
        }
    }
}

// ------------------------------------------------------------ observability

TEST_F(SeedingDifferential, SeedInstrumentsAdvance)
{
    Rng rng(31);
    auto &registry = obs::MetricsRegistry::global();
    const auto before = registry.snapshot();
    const uint64_t occ0 = before.counterValue("seed.occ_calls");
    const uint64_t kmer0 = before.counterValue("seed.kmer_hits");
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
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, out);

    const auto after = registry.snapshot();
    EXPECT_GT(after.counterValue("seed.occ_calls"), occ0);
    EXPECT_GT(after.counterValue("seed.kmer_hits"), kmer0);
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
        collectSeedsBatch(set_->packed_kmer, queries.data(),
                          queries.size(), params, ws, out);

    const uint64_t allocs_before =
        g_new_calls.load(std::memory_order_relaxed);
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, out);
    const uint64_t allocs_after =
        g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(allocs_after, allocs_before)
        << "steady-state batch seeding must not touch the heap";
}

} // namespace
} // namespace seedex

/**
 * @file
 * The one speculation workflow (SeedExFilter::speculate, DESIGN.md §13):
 * a differential fuzz against the estimated full band, including flanks
 * whose estimate caps the band, and its steady-state zero-allocation
 * guarantee.
 */
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "align/extend.h"
#include "seedex/filter.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks (same scheme as test_kernel.cc): every
// global operator new bumps a counter the steady-state test snapshots.
// Every delete form is replaced, the sized aligned ones included:
// otherwise the runtime's (ASan's) version frees these malloc'd blocks
// as operator-new memory and reports alloc-dealloc-mismatch.

namespace {
std::atomic<uint64_t> g_new_calls{0};

void *
countedAlloc(size_t n, size_t align)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
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

// ---------------------------------------------------- Differential fuzz

/** Random pair generator: target from the reference alphabet, query a
 *  mutated copy (substitutions plus occasional short indels), so the
 *  fuzz covers the whole verdict spectrum from clean accepts to
 *  full-band reruns. Queries run from ~10 to ~160 bases, so many flanks
 *  have an estimated full band below the deployed band of 41. */
struct FuzzCase
{
    Sequence query;
    Sequence target;
    int h0 = 0;
};

FuzzCase
makeFuzzCase(Rng &rng)
{
    const int tlen = 30 + static_cast<int>(rng.pick(150));
    std::vector<Base> tv;
    tv.reserve(tlen);
    for (int i = 0; i < tlen; ++i)
        tv.push_back(static_cast<Base>(rng.pick(4)));

    // Error rate per case: 0 .. ~12%.
    const uint64_t err_permille = rng.pick(120);
    std::vector<Base> qv;
    qv.reserve(tv.size());
    for (size_t i = 0; i + 20 < tv.size(); ++i) {
        const uint64_t roll = rng.pick(1000);
        if (roll < err_permille) {
            const uint64_t kind = rng.pick(10);
            if (kind < 7) { // substitution
                qv.push_back(static_cast<Base>(
                    (static_cast<uint64_t>(tv[i]) + 1 + rng.pick(3)) %
                    4));
            } else if (kind < 9) { // deletion of 1-3 target bases
                i += rng.pick(3);
            } else { // insertion of 1-3 random bases
                for (uint64_t k = 0; k <= rng.pick(3); ++k)
                    qv.push_back(static_cast<Base>(rng.pick(4)));
                qv.push_back(tv[i]);
            }
        } else {
            qv.push_back(tv[i]);
        }
    }
    if (qv.empty())
        qv.push_back(static_cast<Base>(rng.pick(4)));

    FuzzCase c;
    c.query = Sequence(std::move(qv));
    c.target = Sequence(std::move(tv));
    c.h0 = 10 + static_cast<int>(rng.pick(50));
    return c;
}

/** The output contract across bands (same as Filter.
 *  OutputInvariantAcrossBands): score/qle/tle must match and gscore
 *  must be equivalent. max_off is explicitly NOT part of the contract —
 *  it reports the band the winning run used. */
void
expectEquivalent(const ExtendResult &got, const ExtendResult &want,
                 const char *what, int iteration)
{
    ASSERT_EQ(got.score, want.score) << what << " @" << iteration;
    ASSERT_EQ(got.qle, want.qle) << what << " @" << iteration;
    ASSERT_EQ(got.tle, want.tle) << what << " @" << iteration;
    ASSERT_TRUE(gscoreEquivalent(got, want)) << what << " @" << iteration;
}

TEST(Speculation, MatchesFullBandFuzz)
{
    SeedExConfig filter_cfg;
    const SeedExFilter filter(filter_cfg);

    FilterStats stats;
    Rng rng(20260809);
    const int kCases = 3000;
    uint64_t accepted = 0, reruns = 0, capped = 0;
    for (int i = 0; i < kCases; ++i) {
        const FuzzCase c = makeFuzzCase(rng);

        // Oracle: the unconditional estimated-full-band extension.
        const int est = estimateFullBand(static_cast<int>(c.query.size()),
                                         filter_cfg.scoring,
                                         filter_cfg.end_bonus);
        ExtendConfig full;
        full.scoring = filter_cfg.scoring;
        full.band = est;
        const ExtendResult want =
            kswExtend(c.query, c.target, c.h0, full);

        const Speculation sp =
            filter.speculate(c.query, c.target, c.h0, &stats);
        expectEquivalent(sp.result, want, "speculate", i);
        ASSERT_EQ(sp.band, std::min(filter_cfg.band, est)) << i;
        if (sp.accepted()) {
            ASSERT_EQ(sp.result, sp.outcome.narrow) << i;
        }
        accepted += sp.accepted();
        reruns += !sp.accepted();
        capped += sp.band < filter_cfg.band;
    }

    // Exactly one verdict per extension reached the funnel.
    EXPECT_EQ(stats.total, static_cast<uint64_t>(kCases));
    EXPECT_EQ(stats.pass_s2 + stats.pass_checks, accepted);
    // The fuzz must cover accepts, reruns, and flanks whose estimate is
    // below the configured band.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(reruns, 0u);
    EXPECT_GT(capped, 0u);
}

TEST(Speculation, AllocatesNothingAfterWarmup)
{
    const SeedExFilter filter{SeedExConfig{}};

    // Pre-generate the cases (generation itself allocates).
    Rng rng(77);
    std::vector<FuzzCase> cases;
    cases.reserve(64);
    for (int i = 0; i < 64; ++i)
        cases.push_back(makeFuzzCase(rng));

    // Warm-up pass sizes the thread-local DP workspaces.
    FilterStats stats;
    for (const FuzzCase &c : cases)
        filter.speculate(c.query, c.target, c.h0, &stats);

    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int round = 0; round < 4; ++round)
        for (const FuzzCase &c : cases)
            filter.speculate(c.query, c.target, c.h0, &stats);
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), before)
        << "speculation steady state must not allocate";
}

} // namespace
} // namespace seedex

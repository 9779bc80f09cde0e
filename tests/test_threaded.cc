/**
 * @file
 * The batch-granular producer→consumer hand-off (batch_ring.h) and the
 * threaded pipeline built on it.
 *
 * Covers: FIFO/close semantics and the wakeup audit of the batch ring,
 * slab recycling through the pool, in-order streaming out of the
 * reorder buffer under adversarial completion orders, the operator-new
 * steady-state zero-allocation guarantee of the whole hand-off path
 * (ring + pool + chaining + reverse-complement recycling) and of the
 * extension driver's flank-job packaging, and an
 * 8-producer/8-consumer stress run over >= 5k reads asserting
 * bit-identical, in-input-order output vs the single-threaded pipeline,
 * and the help path (backlogged seeding threads running the consumer
 * stage) under every feed and pairing mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "aligner/batch_ring.h"
#include "aligner/extension.h"
#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks (same scheme as test_kernel.cc): every
// global operator new bumps a counter the steady-state test snapshots.

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

namespace {

// ------------------------------------------------------------ BatchRing

TEST(BatchRing, FifoAndDrain)
{
    BatchRing ring(4);
    SeededBatch a, b, c;
    ring.push(&a);
    ring.push(&b);
    ring.push(&c);
    EXPECT_EQ(ring.pop(), &a);
    EXPECT_EQ(ring.pop(), &b);
    ring.close();
    EXPECT_EQ(ring.pop(), &c);
    EXPECT_EQ(ring.pop(), nullptr);
    EXPECT_EQ(ring.publishes(), 3u);
    EXPECT_EQ(ring.claims(), 3u);
}

TEST(BatchRing, WakeupsBoundedByPublishesPlusClaims)
{
    // Uncontended single-threaded use: nobody ever waits, so not a
    // single notify should fire.
    BatchRing ring(2);
    SeededBatch a;
    for (int i = 0; i < 10; ++i) {
        ring.push(&a);
        EXPECT_EQ(ring.pop(), &a);
    }
    EXPECT_EQ(ring.wakeups(), 0u);
    EXPECT_LE(ring.wakeups(), ring.publishes() + ring.claims());
}

TEST(BatchRing, BlockedProducerAndConsumerMakeProgress)
{
    BatchRing ring(1); // capacity 1: producer must block
    std::vector<SeededBatch> batches(64);
    std::vector<SeededBatch *> got;
    std::thread consumer([&] {
        while (SeededBatch *x = ring.pop())
            got.push_back(x);
    });
    for (size_t i = 0; i < batches.size(); ++i)
        ring.push(&batches[i]);
    ring.close();
    consumer.join();
    ASSERT_EQ(got.size(), batches.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], &batches[i]) << i; // FIFO preserved
    EXPECT_LE(ring.wakeups(), ring.publishes() + ring.claims());
}

// ------------------------------------------------------------ BatchPool

TEST(BatchPool, RecyclesSlabsAfterWarmup)
{
    BatchPool pool(4, 8);
    SeededBatch *a = pool.acquire();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->items.size(), 8u);
    EXPECT_EQ(pool.misses(), 1u);
    a->n_items = 5;
    a->items[0].n_chains = 3;
    pool.release(a);
    SeededBatch *b = pool.acquire();
    EXPECT_EQ(b, a); // recycled, not reallocated
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(b->n_items, 0u); // prepared empty...
    EXPECT_EQ(b->items[0].n_chains, 3u); // ...but item storage retained
}

// -------------------------------------------------------- ReorderBuffer

TEST(ReorderBuffer, StreamsInOrderUnderAnyCompletionOrder)
{
    Rng rng(401);
    const size_t n_batches = 64;
    const size_t per_batch = 3;
    std::vector<size_t> order(n_batches);
    for (size_t i = 0; i < n_batches; ++i)
        order[i] = i;
    for (size_t i = n_batches; i > 1; --i)
        std::swap(order[i - 1], order[rng.pick(i)]);

    std::vector<size_t> retired_bases;
    ReorderBuffer reorder(n_batches, // window >= worst-case skew
                          [&](size_t base, std::vector<SamRecord> &&recs) {
                              EXPECT_EQ(recs.size(), per_batch);
                              retired_bases.push_back(base);
                          });
    for (size_t seq : order) {
        std::vector<SamRecord> recs(per_batch);
        reorder.complete(seq, seq * per_batch, std::move(recs));
    }
    ASSERT_EQ(retired_bases.size(), n_batches);
    for (size_t i = 0; i < n_batches; ++i)
        EXPECT_EQ(retired_bases[i], i * per_batch) << i;
    EXPECT_EQ(reorder.retired(), n_batches);
    EXPECT_GE(reorder.maxPending(), 1);
}

// ------------------------------------- Steady-state zero-allocation path

Sequence
randomSeq(Rng &rng, int len)
{
    Sequence s;
    s.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

TEST(HandoffAllocation, SteadyStateHandoffAllocatesNothing)
{
    // Deterministic single-threaded drive of the full hand-off path a
    // producer and consumer share: pool acquire -> reads into slab-owned
    // storage -> chain into recycled slab storage (chainSeedsInto +
    // reverseComplementInto) -> ring
    // publish -> ring claim -> pool release. After one warm-up cycle
    // every structure has grown to its high-water mark; the loop below
    // must then be allocation-free (the DpWorkspace discipline applied
    // to the producer->consumer boundary).
    Rng rng(403);
    const size_t kReads = 16;
    std::vector<std::string> names;
    std::vector<Sequence> reads;
    std::vector<std::vector<Seed>> seeds(kReads);
    for (size_t i = 0; i < kReads; ++i) {
        names.push_back("r" + std::to_string(i));
        reads.push_back(randomSeq(rng, 101));
        // Repeat-flavored seed sets: several loci per read, both
        // strands, reference-sorted within each strand block.
        uint64_t rbeg = 1000 + 37 * i;
        for (int k = 0; k < 12; ++k) {
            seeds[i].push_back({(k % 4) * 20, 19, rbeg, false, 1});
            rbeg += (k % 3 == 2) ? 5000 : 21;
        }
        rbeg = 2000 + 53 * i;
        for (int k = 0; k < 6; ++k) {
            seeds[i].push_back({(k % 3) * 30, 19, rbeg, true, 1});
            rbeg += 31;
        }
    }

    ChainingParams params;
    ChainWorkspace ws;
    BatchPool pool(4, kReads);
    BatchRing ring(4);
    auto cycle = [&] {
        SeededBatch *batch = pool.acquire();
        batch->seq = 0;
        batch->base = 0;
        batch->n_items = kReads;
        for (size_t i = 0; i < kReads; ++i) {
            SeededRead &item = batch->items[i];
            item.read_idx = i;
            item.name = names[i];
            item.read = reads[i];
            item.n_seeds = static_cast<uint32_t>(seeds[i].size());
            item.n_chains =
                chainSeedsInto(seeds[i], params, ws, item.chains);
            item.read.reverseComplementInto(item.reverse_complement);
        }
        ring.push(batch);
        SeededBatch *claimed = ring.pop();
        ASSERT_EQ(claimed, batch);
        pool.release(claimed);
    };

    for (int warm = 0; warm < 3; ++warm)
        cycle();
    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int it = 0; it < 100; ++it)
        cycle();
    const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state hand-off performed heap allocations";
}

TEST(HandoffAllocation, FlankJobsRecycledAcrossSides)
{
    // The extension driver's job packaging on a consumer: 8 chains, 4
    // with a left flank and 6 with a right flank, so every call grows
    // from the left side's job count to the right side's. The submit
    // step writes canned results, leaving only the driver. After warm-up
    // the job storage sits at its high-water mark and each side
    // overwrites the kept jobs' sequences in place.
    Rng rng(407);
    const Sequence reference = randomSeq(rng, 5000);
    const int kReadLen = 101;
    std::vector<Sequence> reads;
    std::vector<Chain> chains(8);
    for (size_t s = 0; s < chains.size(); ++s) {
        reads.push_back(randomSeq(rng, kReadLen));
        // Slots 0-3: both flanks; 4-5: right flank only; 6-7: neither.
        const int qbeg = s < 4 ? 20 : 0;
        const int len = s < 6 ? 40 : kReadLen;
        chains[s].seeds.push_back(
            {qbeg, len, 1000 + 300 * static_cast<uint64_t>(s), false, 1});
    }
    std::vector<ChainSlot> slots;
    for (size_t s = 0; s < chains.size(); ++s)
        slots.push_back({&chains[s], &reads[s], {}});

    ExtendResult canned;
    canned.score = 10;
    canned.qle = 5;
    canned.tle = 5;
    // Jobs per submit: left side, then right side.
    size_t submits = 0;
    size_t side_jobs[2] = {0, 0};
    const ExtensionSubmit submit = [&](ExtensionBatch &b) {
        side_jobs[submits++ % 2] = b.jobs().size();
        for (size_t k = 0; k < b.jobs().size(); ++k)
            b.results.push_back(canned);
    };
    const ExtensionParams params;
    ExtensionBatch batch;
    for (int warm = 0; warm < 3; ++warm)
        extendChains(slots, reference, params, batch, submit);
    EXPECT_EQ(side_jobs[0], 4u);
    EXPECT_EQ(side_jobs[1], 6u);

    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int it = 0; it < 100; ++it)
        extendChains(slots, reference, params, batch, submit);
    const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state flank packaging performed heap allocations";
}

/** A pull source over an in-memory read set (copies each read out). */
ReadSource
vectorSource(const std::vector<std::pair<std::string, Sequence>> &reads)
{
    return [&reads, next = size_t{0}](
               std::vector<std::pair<std::string, Sequence>> &dst,
               size_t max) mutable {
        const size_t n = std::min(max, reads.size() - next);
        for (size_t i = 0; i < n; ++i)
            dst[i] = reads[next + i];
        next += n;
        return n;
    };
}

// --------------------------------------------------- Threaded stress run

class ThreadedStress : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(409);
        ReferenceParams params;
        params.length = 150000;
        ref_ = generateReference(params, rng);
    }

    std::vector<std::pair<std::string, Sequence>>
    simulateReads(size_t count, uint64_t seed)
    {
        Rng rng(seed);
        ReadSimulator sim(ref_, ReadSimParams::illumina());
        std::vector<std::pair<std::string, Sequence>> reads;
        for (size_t i = 0; i < count; ++i) {
            const SimulatedRead r = sim.simulate(rng, i);
            reads.emplace_back(r.name, r.seq);
        }
        return reads;
    }

    Sequence ref_;
};

TEST_F(ThreadedStress, EightByEightStreamsBitIdenticalInInputOrder)
{
    const size_t kReads = 5000;
    const auto reads = simulateReads(kReads, 411);

    PipelineConfig base;
    Aligner baseline(ref_, base);
    const auto expected = baseline.alignBatch(reads);

    ThreadedConfig config;
    config.pipeline.engine = EngineKind::SeedEx;
    config.seeding_threads = 8;
    config.fpga_threads = 8;
    config.batch_size = 32;
    config.queue_capacity = 4;
    ThreadedReport report;
    std::vector<SamRecord> got;
    got.reserve(kReads);
    size_t next_idx = 0;
    bool ordered = true;
    alignThreadedSource(
        ref_, vectorSource(reads), config,
        [&](size_t read_idx, SamRecord &&rec) {
            // The reorder buffer's contract: strictly increasing
            // read_idx with no gaps, straight off consumer threads.
            ordered &= read_idx == next_idx;
            ++next_idx;
            got.push_back(std::move(rec));
        },
        &report);
    EXPECT_TRUE(ordered) << "sink saw out-of-order read indices";
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].sameAlignment(expected[i]))
            << "read " << i << "\n  base: " << expected[i].render()
            << "\n  thrd: " << got[i].render();
    }

    // Report sanity: every published batch was claimed and retired, the
    // pool recycled after warm-up, and the wakeup audit holds.
    EXPECT_EQ(report.reads, kReads);
    EXPECT_EQ(report.queue.publishes, report.batches);
    EXPECT_EQ(report.queue.claims, report.batches);
    EXPECT_EQ(report.reorder.retired, report.batches);
    EXPECT_EQ(report.pool.hits + report.pool.misses,
              report.queue.publishes);
    EXPECT_GT(report.pool.hitRate(), 0.5);
    EXPECT_LE(report.queue.wakeups,
              report.queue.publishes + report.queue.claims);
    EXPECT_EQ(report.queue.capacity_batches, 4u);
    EXPECT_LE(report.queue.max_depth, 4);
    EXPECT_GT(report.producer_cpu_seconds, 0.0);
    EXPECT_GT(report.consumer_cpu_seconds, 0.0);
}

TEST_F(ThreadedStress, SeedBatchSizeSelectsTheSeedingDriver)
{
    // SEEDEX_SEED_BATCH=1 selects the scalar SMEM driver, which leaves
    // the lockstep driver's batch-size gauge at 0; any other size runs
    // the lockstep driver on chunks of that many reads. The stage's seed
    // step makes the choice, so it holds on the threads as inline.
    const auto reads = simulateReads(256, 415);
    ThreadedConfig config;
    config.pipeline.engine = EngineKind::SeedEx;
    config.seeding_threads = 2;
    config.fpga_threads = 1;
    obs::MetricsRegistry::global().reset();
    alignThreaded(ref_, reads, config);
    const size_t chunk = seedBatchSize();
    EXPECT_EQ(
        obs::MetricsRegistry::global().gauge("seed.batch_size").maxValue(),
        chunk == 1 ? 0 : static_cast<int64_t>(chunk));
}

// ------------------------------------------------------- Help-path wall

/**
 * Seeding threads that find the ring full run the consumer stage
 * themselves (tryPop + the FPGA threads' batch function). Forced here
 * with 3 seeding threads, 1 FPGA thread, a one-batch ring and a sink
 * that sleeps once per batch, so the device side is always backlogged.
 * Helping must change nothing but who does the work: SAM bytes equal
 * the single-threaded aligner, and the device/filter/rerun instruments
 * equal a 1+1 run of the same corpus. The wall runs under the device
 * backend, where the device.* instruments move, and under `seedex
 * align`'s default engine (SeedEx), which must leave every device.*
 * counter where it was.
 */
class ThreadedHelp : public ::testing::Test
{
  protected:
    static constexpr size_t kBatch = 16;

    void
    SetUp() override
    {
        Rng rng(421);
        ReferenceParams params;
        params.length = 150000;
        ref_ = generateReference(params, rng);
    }

    /** Schedule-independent instruments: the job set, each batch's
     *  composition, and every job's verdict and timing depend only on
     *  the input. */
    static std::vector<std::string>
    invariantCounters()
    {
        return {"stage.extensions",
                "stage.reruns",
                "filter.verdict.total",
                "filter.verdict.pass_s2",
                "filter.verdict.pass_checks",
                "filter.verdict.fail_s1",
                "filter.verdict.fail_e_score",
                "filter.verdict.fail_edit_check",
                "filter.verdict.fail_gscore_guard",
                "device.cycles.critical",
                "device.cycles.busy",
                "device.cycles.edit",
                "device.rerun.exception",
                "device.rerun.checks"};
    }

    /** Every registered device.* counter and its value. */
    static std::map<std::string, uint64_t>
    deviceCounters()
    {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, value] :
             obs::MetricsRegistry::global().snapshot().counters)
            if (name.rfind("device.", 0) == 0)
                out[name] = value;
        return out;
    }

    struct Run
    {
        std::vector<std::string> sam;
        ThreadedReport report;
        std::map<std::string, uint64_t> counters;
        /** How far each device.* counter moved during the run. */
        std::map<std::string, uint64_t> device_moved;
    };

    /** One threaded run over `reads`. `backlog` selects the forced-help
     *  shape (3 + 1 threads, one-batch ring, sleeping sink) instead of
     *  1 + 1. */
    Run
    run(const std::vector<std::pair<std::string, Sequence>> &reads,
        ThreadedConfig config, bool backlog)
    {
        config.batch_size = kBatch;
        config.seeding_threads = backlog ? 3 : 1;
        config.fpga_threads = 1;
        config.queue_capacity = backlog ? 1 : 8;
        const std::vector<std::string> names = invariantCounters();
        std::map<std::string, uint64_t> before;
        for (const std::string &n : names)
            before[n] = obs::MetricsRegistry::global().counter(n).value();
        const std::map<std::string, uint64_t> device_before =
            deviceCounters();

        Run out;
        out.sam.resize(reads.size());
        const SamSink sink = [&](size_t read_idx, SamRecord &&rec) {
            if (backlog && read_idx % kBatch == 0)
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            out.sam[read_idx] = rec.render();
        };
        alignThreadedSource(ref_, vectorSource(reads), config, sink,
                            &out.report);
        for (const std::string &n : names)
            out.counters[n] =
                obs::MetricsRegistry::global().counter(n).value() -
                before[n];
        for (const auto &[n, value] : deviceCounters()) {
            const auto it = device_before.find(n);
            out.device_moved[n] =
                value - (it == device_before.end() ? 0 : it->second);
        }
        return out;
    }

    /** The wall, per engine: the backlogged run helped, its bytes equal
     *  `expect`, and its instruments equal the 1+1 run's. The device
     *  backend moves the device.* counters; the default engine leaves
     *  every one of them unchanged. */
    void
    checkWall(const std::vector<std::pair<std::string, Sequence>> &reads,
              ThreadedConfig config, const std::vector<std::string> &expect)
    {
        for (const EngineKind engine :
             {EngineKind::Device, EngineKind::SeedEx}) {
            const bool device = engine == EngineKind::Device;
            SCOPED_TRACE(device ? "engine=device" : "engine=seedex");
            config.pipeline.engine = engine;
            const Run serial = run(reads, config, /*backlog=*/false);
            const Run helped = run(reads, config, /*backlog=*/true);
            EXPECT_GT(helped.report.helped_batches, 0u)
                << "the backlog never made a seeding thread help";
            EXPECT_LE(helped.report.helped_batches, helped.report.batches);
            EXPECT_EQ(helped.report.queue.claims, helped.report.batches);
            EXPECT_EQ(helped.report.queue.publishes, helped.report.batches);
            ASSERT_EQ(helped.sam.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i) {
                ASSERT_EQ(serial.sam[i], expect[i])
                    << "1+1 run, record " << i;
                ASSERT_EQ(helped.sam[i], expect[i])
                    << "3+1 run, record " << i;
            }
            for (const std::string &n : invariantCounters())
                EXPECT_EQ(helped.counters.at(n), serial.counters.at(n))
                    << n;
            EXPECT_GT(helped.counters.at("stage.extensions"), 0u);
            EXPECT_GT(helped.counters.at("filter.verdict.total"), 0u);
            for (const Run *r : {&serial, &helped}) {
                if (device) {
                    EXPECT_GT(r->device_moved.at("device.jobs"), 0u);
                    EXPECT_GT(r->report.device_cycles, 0u);
                    continue;
                }
                for (const auto &[n, moved] : r->device_moved)
                    EXPECT_EQ(moved, 0u) << n;
                EXPECT_EQ(r->report.device_cycles, 0u);
                EXPECT_EQ(r->report.device_occupancy_seconds, 0.0);
            }
        }
    }

    std::vector<std::pair<std::string, Sequence>>
    singleReads(size_t count, uint64_t seed)
    {
        Rng rng(seed);
        ReadSimulator sim(ref_, ReadSimParams::illumina());
        std::vector<std::pair<std::string, Sequence>> reads;
        for (size_t i = 0; i < count; ++i) {
            const SimulatedRead r = sim.simulate(rng, i);
            reads.emplace_back(r.name, r.seq);
        }
        return reads;
    }

    std::vector<std::string>
    alignerOracle(const std::vector<std::pair<std::string, Sequence>> &reads)
    {
        Aligner baseline(ref_, PipelineConfig{});
        std::vector<std::string> expect;
        for (const SamRecord &rec : baseline.alignBatch(reads))
            expect.push_back(rec.render());
        return expect;
    }

    Sequence ref_;
};

TEST_F(ThreadedHelp, SourceFeedHelpsWithoutChangingBytesOrCounters)
{
    const auto reads = singleReads(800, 425);
    checkWall(reads, ThreadedConfig{}, alignerOracle(reads));
}

TEST_F(ThreadedHelp, PairedModeHelpsWithoutChangingBytesOrCounters)
{
    // Interleaved pairs; every 10th second mate shredded (a substitution
    // every 12 bases leaves no seed) so helpers also run mate rescue.
    Rng rng(429);
    ReadSimulator sim(ref_, ReadSimParams::illumina());
    std::vector<std::pair<std::string, Sequence>> reads;
    for (size_t i = 0; i < 400; ++i) {
        const SimulatedPair pair = sim.simulatePair(rng, i);
        Sequence second = pair.second.seq;
        if (i % 10 == 3)
            for (size_t p = 5; p < second.size(); p += 12)
                second[p] = static_cast<Base>((second[p] + 1) % 4);
        reads.emplace_back(pair.first.name, pair.first.seq);
        reads.emplace_back(pair.second.name, std::move(second));
    }
    PairedConfig oconfig;
    oconfig.pipeline.engine = EngineKind::SeedEx;
    PairedAligner oracle(ref_, oconfig);
    std::vector<std::string> expect;
    for (size_t i = 0; i + 1 < reads.size(); i += 2) {
        const PairedResult r = oracle.alignPair(
            reads[i].first, reads[i].second, reads[i + 1].second);
        expect.push_back(r.first.render());
        expect.push_back(r.second.render());
    }
    ThreadedConfig config;
    config.paired = true;
    config.insert = oconfig.insert;
    checkWall(reads, config, expect);
}

// ---------------------------------------------------------- Environment

TEST(ThreadedConfigEnv, KnobsApplyAndGarbageIsIgnored)
{
    // The one 3:1 split, with at least one thread on each side.
    ThreadedConfig split;
    split.splitThreads(1);
    EXPECT_EQ(split.seeding_threads, 1);
    EXPECT_EQ(split.fpga_threads, 1);
    split.splitThreads(8);
    EXPECT_EQ(split.seeding_threads, 6);
    EXPECT_EQ(split.fpga_threads, 2);

    ThreadedConfig config;
    setenv("SEEDEX_THREADS", "8", 1);
    setenv("SEEDEX_BATCH", "32", 1);
    setenv("SEEDEX_QUEUE_CAP", "5", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 6); // 3:1 split of 8
    EXPECT_EQ(config.fpga_threads, 2);
    EXPECT_EQ(config.batch_size, 32u);
    EXPECT_EQ(config.queue_capacity, 5u);

    setenv("SEEDEX_THREADS", "garbage", 1);
    setenv("SEEDEX_BATCH", "-3", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 6); // unchanged
    EXPECT_EQ(config.batch_size, 32u);    // unchanged

    setenv("SEEDEX_THREADS", "1", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 1); // at least one each side
    EXPECT_EQ(config.fpga_threads, 1);

    unsetenv("SEEDEX_THREADS");
    unsetenv("SEEDEX_BATCH");
    unsetenv("SEEDEX_QUEUE_CAP");
}

} // namespace

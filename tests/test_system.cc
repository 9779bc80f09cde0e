#include <gtest/gtest.h>

#include "aligner/paired.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "hw/batch_format.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace seedex {
namespace {

class SystemFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(301);
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

// ------------------------------------------------------------ BatchFormat

TEST(BatchFormat, RoundTripsJobsBitExactly)
{
    Rng rng(303);
    std::vector<ExtensionJob> jobs;
    for (int k = 0; k < 40; ++k) {
        ExtensionJob job;
        const size_t qlen = 1 + rng.pick(150);
        const size_t tlen = 1 + rng.pick(220);
        for (size_t i = 0; i < qlen; ++i)
            job.query.push_back(static_cast<Base>(rng.pick(5)));
        for (size_t i = 0; i < tlen; ++i)
            job.target.push_back(static_cast<Base>(rng.pick(5)));
        job.h0 = 1 + static_cast<int>(rng.pick(200));
        jobs.push_back(std::move(job));
    }
    const PackedBatch packed = packBatch(jobs);
    EXPECT_EQ(packed.jobs, jobs.size());
    EXPECT_GT(packed.bytes(), 0u);
    const auto unpacked = unpackBatch(packed);
    ASSERT_EQ(unpacked.size(), jobs.size());
    for (size_t k = 0; k < jobs.size(); ++k) {
        EXPECT_EQ(unpacked[k].query, jobs[k].query) << k;
        EXPECT_EQ(unpacked[k].target, jobs[k].target) << k;
        EXPECT_EQ(unpacked[k].h0, jobs[k].h0) << k;
    }
}

TEST(BatchFormat, ThreeBitCharactersAreCompact)
{
    // A 101+151 bp job needs 96 bits of header + 756 bits of chars:
    // two 512-bit lines, not the 3+ lines a byte-per-char layout needs.
    ExtensionJob job;
    for (int i = 0; i < 101; ++i)
        job.query.push_back(kBaseA);
    for (int i = 0; i < 151; ++i)
        job.target.push_back(kBaseT);
    job.h0 = 10;
    const PackedBatch packed = packBatch({job});
    EXPECT_EQ(packed.lines.size(), 2u);
}

TEST(BatchFormat, ResultCoalescingFiveToOne)
{
    std::vector<ResultEntry> results;
    for (uint32_t k = 0; k < 23; ++k) {
        ResultEntry r;
        r.job_id = k;
        r.score = static_cast<int32_t>(100 + k);
        r.gscore = static_cast<int32_t>(k % 3 ? 90 + k : -1);
        r.qle = static_cast<uint16_t>(k);
        r.tle = static_cast<uint16_t>(2 * k);
        r.gtle = static_cast<uint16_t>(3 * k);
        r.flags = k % 7 == 0 ? ResultEntry::kFlagRerun : 0;
        results.push_back(r);
    }
    const auto lines = packResults(results);
    // ceil(23 / 5) = 5 output lines (the 5:1 coalescing of SS V-A).
    EXPECT_EQ(lines.size(), 5u);
    const auto back = unpackResults(lines, results.size());
    ASSERT_EQ(back.size(), results.size());
    for (size_t k = 0; k < results.size(); ++k) {
        EXPECT_EQ(back[k].job_id, results[k].job_id);
        EXPECT_EQ(back[k].score, results[k].score);
        EXPECT_EQ(back[k].gscore, results[k].gscore);
        EXPECT_EQ(back[k].qle, results[k].qle);
        EXPECT_EQ(back[k].flags, results[k].flags);
    }
}

TEST_F(SystemFixture, PrefetchHidesMemoryBehindCompute)
{
    Rng rng(307);
    ReadSimulator sim(ref_, ReadSimParams::illumina());
    PipelineConfig config;
    Aligner aligner(ref_, config);
    std::vector<ExtensionJob> jobs;
    for (int i = 0; i < 150; ++i) {
        const SimulatedRead r = sim.simulate(rng, i);
        aligner.alignRead(r.name, r.seq, nullptr, &jobs);
    }
    ASSERT_GT(jobs.size(), 20u);
    const PackedBatch packed = packBatch(jobs);
    const BandwidthReport report =
        accountBandwidth(packed, jobs, 41, 3);
    // SS V-A: 40-cycle AXI reads hide behind ~100-cycle extensions; at
    // one line per beat the whole batch stream is far cheaper than the
    // cluster's compute.
    EXPECT_TRUE(report.memoryHidden());
    EXPECT_GT(report.compute_cycles,
              report.memory_cycles * 4);
}

// ----------------------------------------------------- Threaded pipeline

TEST_F(SystemFixture, ThreadedMatchesSingleThreadedBaseline)
{
    const auto reads = simulateReads(120, 311);

    PipelineConfig base;
    Aligner baseline(ref_, base);
    const auto expected = baseline.alignBatch(reads);

    // SeedEx on the threads against the full-band baseline: the
    // optimality guarantee under the producer-consumer pipeline.
    ThreadedConfig config;
    config.pipeline.engine = EngineKind::SeedEx;
    config.seeding_threads = 3;
    config.fpga_threads = 2;
    config.batch_size = 16;
    ThreadedReport report;
    const auto got = alignThreaded(ref_, reads, config, &report);

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].sameAlignment(expected[i]))
            << "read " << i << "\n  base: " << expected[i].render()
            << "\n  thrd: " << got[i].render();
    }
    EXPECT_EQ(report.reads, reads.size());
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.extensions, 0u);
}

TEST_F(SystemFixture, ThreadedDeterministicAcrossThreadCounts)
{
    const auto reads = simulateReads(60, 313);
    ThreadedConfig one;
    one.seeding_threads = 1;
    one.fpga_threads = 1;
    ThreadedConfig many;
    many.seeding_threads = 4;
    many.fpga_threads = 3;
    many.batch_size = 8;
    const auto a = alignThreaded(ref_, reads, one);
    const auto b = alignThreaded(ref_, reads, many);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameAlignment(b[i])) << i;
}

// ---------------------------------------------------------- Observability

TEST_F(SystemFixture, RegistryVerdictCountersMatchFilterStats)
{
    obs::MetricsRegistry::global().reset();
    const auto reads = simulateReads(60, 331);

    PipelineConfig config;
    config.engine = EngineKind::SeedEx;
    config.band = 11;
    Aligner aligner(ref_, config);
    PipelineStats stats;
    aligner.alignBatch(reads, &stats);
    ASSERT_GT(stats.extensions, 0u);

    // FilterStats::add is the single funnel into both the ad-hoc struct
    // and the registry, so after a reset the two views must agree.
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const FilterStats &f = stats.filter;
    EXPECT_EQ(snap.counterValue("filter.verdict.total"), f.total);
    EXPECT_EQ(snap.counterValue("filter.verdict.pass_s2"), f.pass_s2);
    EXPECT_EQ(snap.counterValue("filter.verdict.pass_checks"),
              f.pass_checks);
    EXPECT_EQ(snap.counterValue("filter.verdict.fail_s1"), f.fail_s1);
    EXPECT_EQ(snap.counterValue("filter.verdict.fail_e_score"), f.fail_e);
    EXPECT_EQ(snap.counterValue("filter.verdict.fail_edit_check"),
              f.fail_edit);
    EXPECT_EQ(snap.counterValue("filter.verdict.fail_gscore_guard"),
              f.fail_gscore_guard);
    EXPECT_EQ(snap.counterValue("filter.edit_machine.runs"),
              f.edit_machine_runs);

    // Per-verdict counters partition the extension count.
    EXPECT_EQ(f.pass_s2 + f.pass_checks + f.fail_s1 + f.fail_e +
                  f.fail_edit + f.fail_gscore_guard,
              stats.extensions);
    EXPECT_EQ(snap.counterValue("stage.reads"), stats.reads);
    EXPECT_EQ(snap.counterValue("stage.extensions"), stats.extensions);
}

// ---------------------------------------------------------- Paired ends

class PairedFixture : public SystemFixture
{};

TEST_F(PairedFixture, ProperPairsGetFlagsAndTlen)
{
    Rng rng(317);
    ReadSimulator sim(ref_, ReadSimParams::illumina());
    PairedConfig config;
    PairedAligner aligner(ref_, config);
    int proper = 0;
    const int n = 25;
    for (int i = 0; i < n; ++i) {
        const SimulatedPair pair = sim.simulatePair(rng, i);
        const PairedResult r = aligner.alignPair(
            pair.first.name, pair.first.seq, pair.second.seq);
        ASSERT_TRUE(r.first.mapped());
        ASSERT_TRUE(r.second.mapped());
        EXPECT_TRUE(r.first.flag & kSamFlagPaired);
        EXPECT_TRUE(r.first.flag & kSamFlagFirstInPair);
        EXPECT_TRUE(r.second.flag & kSamFlagSecondInPair);
        if (r.proper) {
            ++proper;
            EXPECT_TRUE(r.first.flag & kSamFlagProperPair);
            EXPECT_EQ(r.first.rnext, "=");
            EXPECT_EQ(r.first.pnext, r.second.pos);
            EXPECT_EQ(r.first.tlen, -r.second.tlen);
            EXPECT_NEAR(static_cast<double>(std::llabs(r.first.tlen)),
                        static_cast<double>(pair.fragment_length), 60.0);
            // One mate forward, one reverse.
            EXPECT_NE(r.first.flag & kSamFlagReverse,
                      r.second.flag & kSamFlagReverse);
        }
    }
    EXPECT_GE(proper, n * 9 / 10);
}

TEST_F(PairedFixture, MateRescueRecoversSeedlessMate)
{
    Rng rng(319);
    ReadSimulator sim(ref_, ReadSimParams::illumina());
    const SimulatedPair pair = sim.simulatePair(rng, 0);
    // Mutate mate 2 every 12 bases: no 19-mer seed survives (seeding
    // fails), but ~92% identity keeps the rescue SW score confident.
    Sequence shredded = pair.second.seq;
    for (size_t i = 5; i < shredded.size(); i += 12)
        shredded[i] = static_cast<Base>((shredded[i] + 1) % 4);
    PairedConfig config;
    PairedAligner aligner(ref_, config);
    const PairedResult r = aligner.alignPair(
        pair.first.name, pair.first.seq, shredded);
    ASSERT_TRUE(r.first.mapped());
    EXPECT_TRUE(r.second.mapped());
    EXPECT_TRUE(r.rescued);
    // Rescued mate lands near the true fragment end.
    const int64_t delta = static_cast<int64_t>(r.second.pos) -
                          static_cast<int64_t>(pair.second.true_pos);
    EXPECT_LT(std::llabs(delta), 50);

    // Without rescue, the shredded mate stays unmapped.
    PairedConfig no_rescue = config;
    no_rescue.mate_rescue = false;
    PairedAligner plain(ref_, no_rescue);
    const PairedResult r2 = plain.alignPair(
        pair.first.name, pair.first.seq, shredded);
    EXPECT_FALSE(r2.second.mapped());
    EXPECT_TRUE(r2.second.flag & kSamFlagPaired);
    EXPECT_TRUE(r2.first.flag & kSamFlagMateUnmapped);
}

TEST_F(PairedFixture, PairSimulatorShape)
{
    Rng rng(323);
    ReadSimParams p = ReadSimParams::illumina();
    ReadSimulator sim(ref_, p);
    RunningStats inserts;
    for (int i = 0; i < 200; ++i) {
        const SimulatedPair pair = sim.simulatePair(rng, i);
        EXPECT_FALSE(pair.first.reverse);
        EXPECT_TRUE(pair.second.reverse);
        EXPECT_EQ(pair.first.true_pos, pair.fragment_start);
        EXPECT_EQ(pair.second.true_pos + p.read_length,
                  pair.fragment_start +
                      static_cast<size_t>(pair.fragment_length));
        inserts.add(pair.fragment_length);
    }
    EXPECT_NEAR(inserts.mean(), p.insert_mean, 15.0);
}

} // namespace
} // namespace seedex

/**
 * @file
 * Provenance-ledger tests: per-thread buffers merge without loss or
 * duplication under the threaded pipeline, sampling is deterministic,
 * and the ledger's per-read verdict tallies reconcile exactly with the
 * aggregate filter.* registry counters — the acceptance identity that
 * makes the JSONL trustworthy for debugging verdict mixes — and the
 * banded engine attributes its z-drops and band clips to the read.
 */
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "aligner/pipeline.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace seedex {
namespace {

/** Scoped enable/clear so a failing test cannot leak ledger state. */
class LedgerGuard
{
  public:
    explicit LedgerGuard(uint32_t sample)
    {
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(sample);
    }
    ~LedgerGuard()
    {
        obs::Ledger::global().disable();
        obs::Ledger::global().clear();
    }
};

struct Workload
{
    Sequence reference;
    std::vector<std::pair<std::string, Sequence>> reads;
};

Workload
makeWorkload(size_t ref_len, size_t n_reads, uint64_t seed)
{
    Workload w;
    Rng rng(seed);
    ReferenceParams rp;
    rp.length = ref_len;
    w.reference = generateReference(rp, rng);
    ReadSimulator sim(w.reference, ReadSimParams::illumina());
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = sim.simulate(rng, i);
        w.reads.emplace_back(r.name, r.seq);
    }
    return w;
}

uint64_t
verdictCounter(obs::LedgerVerdict v)
{
    const std::string name = std::string("filter.verdict.") +
                             obs::ledgerVerdictName(v);
    return obs::MetricsRegistry::global().counter(name).value();
}

TEST(Ledger, ThreadedRunLosesAndDuplicatesNothing)
{
    const Workload w = makeWorkload(120000, 400, 0x1ed6e401);
    LedgerGuard guard(1);
    obs::MetricsRegistry::global().reset();

    ThreadedConfig cfg;
    cfg.seeding_threads = 3;
    cfg.fpga_threads = 2;
    cfg.batch_size = 16;
    ThreadedReport report;
    const std::vector<SamRecord> records =
        alignThreaded(w.reference, w.reads, cfg, &report);
    ASSERT_EQ(records.size(), w.reads.size());

    // Every read surfaces exactly once, whichever thread processed it.
    const std::vector<obs::ReadRecord> recs =
        obs::Ledger::global().collect();
    ASSERT_EQ(recs.size(), w.reads.size());
    std::set<uint64_t> indexes;
    for (const obs::ReadRecord &rec : recs)
        indexes.insert(rec.read_index);
    EXPECT_EQ(indexes.size(), w.reads.size());
    EXPECT_EQ(*indexes.begin(), 0u);
    EXPECT_EQ(*indexes.rbegin(), w.reads.size() - 1);

    // Records carry the read's own metadata, not a neighbour's.
    for (const obs::ReadRecord &rec : recs) {
        EXPECT_EQ(rec.name, w.reads[rec.read_index].first);
        EXPECT_EQ(rec.mapped,
                  records[rec.read_index].mapped());
        if (rec.mapped) {
            EXPECT_EQ(rec.score, records[rec.read_index].score);
            EXPECT_GE(rec.chain_chosen, 0);
            EXPECT_LT(rec.chain_chosen, static_cast<int>(rec.chains));
        }
    }

    // Acceptance identity: ledger verdict tallies == the aggregate
    // filter.verdict.* counters, code for code; ledger fallbacks == the
    // threaded report's rerun count.
    const obs::LedgerSummary sum = obs::Ledger::global().summary();
    uint64_t counter_total = 0;
    for (int v = 0; v < obs::kLedgerVerdicts; ++v) {
        const auto lv = static_cast<obs::LedgerVerdict>(v);
        EXPECT_EQ(sum.verdicts[static_cast<size_t>(v)],
                  verdictCounter(lv))
            << obs::ledgerVerdictName(lv);
        counter_total += verdictCounter(lv);
    }
    EXPECT_EQ(sum.verdictTotal(), counter_total);
    EXPECT_EQ(sum.verdictTotal(),
              obs::MetricsRegistry::global()
                  .counter("filter.verdict.total")
                  .value());
    EXPECT_EQ(sum.extensions, report.extensions);
    EXPECT_EQ(sum.reruns, report.reruns);
    EXPECT_EQ(sum.edit_machine_runs,
              obs::MetricsRegistry::global()
                  .counter("filter.edit_machine.runs")
                  .value());
}

TEST(Ledger, SingleThreadedPipelineMatchesFilterCounters)
{
    const Workload w = makeWorkload(80000, 150, 0x1ed6e402);
    LedgerGuard guard(1);
    obs::MetricsRegistry::global().reset();

    PipelineConfig cfg;
    cfg.engine = EngineKind::SeedEx;
    cfg.band = 5; // narrow band: provokes real fallbacks
    Aligner aligner(w.reference, cfg);
    PipelineStats stats;
    const std::vector<SamRecord> records =
        aligner.alignBatch(w.reads, &stats);
    ASSERT_EQ(records.size(), w.reads.size());

    const obs::LedgerSummary sum = obs::Ledger::global().summary();
    EXPECT_EQ(sum.records, w.reads.size());
    EXPECT_EQ(sum.verdictTotal(), stats.filter.total);
    EXPECT_EQ(sum.verdicts[0], stats.filter.pass_s2);
    EXPECT_EQ(sum.verdicts[1], stats.filter.pass_checks);
    EXPECT_EQ(sum.verdicts[2], stats.filter.fail_s1);
    EXPECT_EQ(sum.verdicts[3], stats.filter.fail_e);
    EXPECT_EQ(sum.verdicts[4], stats.filter.fail_edit);
    EXPECT_EQ(sum.verdicts[5], stats.filter.fail_gscore_guard);
    EXPECT_EQ(sum.edit_machine_runs, stats.filter.edit_machine_runs);
    // Every rejected verdict is exactly one host rerun in the software
    // engine, so the fallback identity holds.
    EXPECT_EQ(sum.reruns, stats.filter.fail_s1 + stats.filter.fail_e +
                              stats.filter.fail_edit +
                              stats.filter.fail_gscore_guard);
    EXPECT_EQ(sum.extensions, stats.extensions);
    // Narrow band on simulated error-bearing reads must exercise at
    // least one verdict for the identity to mean anything.
    EXPECT_GT(sum.verdictTotal(), 0u);
}

TEST(Ledger, SamplingIsDeterministicAndExact)
{
    const Workload w = makeWorkload(100000, 200, 0x1ed6e403);

    ThreadedConfig cfg;
    cfg.seeding_threads = 2;
    cfg.fpga_threads = 2;
    cfg.batch_size = 16;

    {
        LedgerGuard guard(4);
        alignThreaded(w.reference, w.reads, cfg, nullptr);
        const std::vector<obs::ReadRecord> recs =
            obs::Ledger::global().collect();
        // 200 reads at sample 4: exactly indexes 0, 4, 8, ..., 196.
        ASSERT_EQ(recs.size(), w.reads.size() / 4);
        for (const obs::ReadRecord &rec : recs)
            EXPECT_EQ(rec.read_index % 4, 0u) << rec.read_index;
        const obs::LedgerSummary sum = obs::Ledger::global().summary();
        EXPECT_EQ(sum.sample_every, 4u);
        EXPECT_EQ(sum.records, w.reads.size() / 4);
    }

    // The same sampling applies to the single-threaded auto-numbering.
    {
        LedgerGuard guard(4);
        PipelineConfig pcfg;
        pcfg.engine = EngineKind::SeedEx;
        pcfg.band = 11;
        Aligner aligner(w.reference, pcfg);
        aligner.alignBatch(w.reads, nullptr);
        EXPECT_EQ(obs::Ledger::global().recordCount(),
                  w.reads.size() / 4);
    }
}

TEST(Ledger, DisabledCostsNothingAndRecordsNothing)
{
    obs::Ledger::global().disable();
    obs::Ledger::global().clear();
    EXPECT_FALSE(obs::Ledger::global().enabled());
    EXPECT_EQ(obs::Ledger::active(), nullptr);
    {
        obs::ReadScope scope("unrecorded");
        EXPECT_EQ(scope.record(), nullptr);
        EXPECT_EQ(obs::Ledger::active(), nullptr);
    }
    EXPECT_EQ(obs::Ledger::global().recordCount(), 0u);
}

TEST(Ledger, JsonlRoundTripsThroughParser)
{
    LedgerGuard guard(1);
    obs::ReadRecord rec;
    rec.read_index = 7;
    rec.name = "line\nbreak \"quoted\"";
    rec.seeds = 3;
    rec.chains = 2;
    rec.chain_chosen = 1;
    rec.band = 5;
    rec.band_used = 4;
    rec.kernel_calls = 3;
    rec.extensions = 2;
    rec.addVerdict(obs::LedgerVerdict::PassS2, false);
    rec.addVerdict(obs::LedgerVerdict::FailEditCheck, true);
    rec.reruns = 1;
    rec.score = 97;
    rec.mapped = true;
    rec.kernel = "avx2";
    obs::Ledger::global().publish(rec);

    const std::string jsonl = obs::Ledger::global().toJsonl();
    ASSERT_FALSE(jsonl.empty());
    EXPECT_EQ(jsonl.back(), '\n');

    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(
        jsonl.substr(0, jsonl.size() - 1), v, &err))
        << err;
    EXPECT_DOUBLE_EQ(v.find("read")->number, 7.0);
    EXPECT_EQ(v.find("name")->string, "line\nbreak \"quoted\"");
    EXPECT_DOUBLE_EQ(v.find("verdicts")->find("pass_s2")->number, 1.0);
    EXPECT_DOUBLE_EQ(
        v.find("verdicts")->find("fail_edit_check")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("edit_machine_runs")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("reruns")->number, 1.0);
    EXPECT_TRUE(v.find("mapped")->boolean);
    EXPECT_EQ(v.find("kernel")->string, "avx2");
}

TEST(Ledger, ConcurrentPublishersMergeCompletely)
{
    LedgerGuard guard(1);
    constexpr int kThreads = 6;
    constexpr int kPerThread = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i) {
                obs::ReadRecord rec;
                rec.read_index =
                    static_cast<uint64_t>(t) * kPerThread + i;
                rec.extensions = 1;
                obs::Ledger::global().publish(std::move(rec));
            }
        });
    }
    for (std::thread &t : workers)
        t.join();

    const std::vector<obs::ReadRecord> recs =
        obs::Ledger::global().collect();
    ASSERT_EQ(recs.size(),
              static_cast<size_t>(kThreads) * kPerThread);
    // collect() sorts by read_index; with unique indexes the sequence
    // is exactly 0..N-1.
    for (size_t i = 0; i < recs.size(); ++i)
        EXPECT_EQ(recs[i].read_index, i);
    EXPECT_EQ(obs::Ledger::global().summary().extensions,
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Ledger, BandedEngineReportsZdropAndClip)
{
    // A band-2 engine on an indel-rich pair must clip (max_off at the
    // band edge); a zdrop-5 engine on a read whose tail is garbage must
    // z-drop. Both must land in the read record.
    LedgerGuard guard(1);
    Rng rng(91);
    std::vector<Base> tv;
    for (int i = 0; i < 120; ++i)
        tv.push_back(static_cast<Base>(rng.pick(4)));

    { // clip: one inserted base every 20 target bases drifts the
      // optimal diagonal past a band of 2 while the score keeps rising,
      // so the running max is updated at the band edge (max_off == w).
        std::vector<Base> qv;
        for (size_t i = 0; i < tv.size(); ++i) {
            if (i > 0 && i % 20 == 0)
                qv.push_back(static_cast<Base>(rng.pick(4)));
            qv.push_back(tv[i]);
        }
        BandedEngine engine(2);
        obs::ReadScope scope("clipped");
        ASSERT_NE(scope.record(), nullptr);
        engine.extend({Sequence(std::vector<Base>(qv)), Sequence(tv), 30});
        EXPECT_GE(scope.record()->band_clips, 1u);
        EXPECT_EQ(scope.record()->zdrops, 0u);
    }
    { // zdrop: 40 matching bases then 80 of noise, tight zdrop
        std::vector<Base> qv(tv.begin(), tv.begin() + 40);
        for (int i = 0; i < 80; ++i)
            qv.push_back(
                static_cast<Base>((static_cast<uint64_t>(
                                       tv[40 + i % 60]) +
                                   1 + rng.pick(3)) %
                                  4));
        BandedEngine engine(41, Scoring::bwaDefault(), 5, /*zdrop=*/5);
        obs::ReadScope scope("dropped");
        ASSERT_NE(scope.record(), nullptr);
        engine.extend({Sequence(std::move(qv)), Sequence(tv), 30});
        EXPECT_GE(scope.record()->zdrops, 1u);
    }

    const obs::LedgerSummary sum = obs::Ledger::global().summary();
    EXPECT_GE(sum.band_clips, 1u);
    EXPECT_GE(sum.zdrops, 1u);
}

} // namespace
} // namespace seedex

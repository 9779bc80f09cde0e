#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "genome/read_sim.h"
#include "genome/reference.h"
#include "hw/accelerator.h"
#include "hw/area_model.h"
#include "hw/asic_model.h"
#include "hw/delta.h"
#include "hw/pe_array.h"
#include "align/dp.h"
#include "hw/edit_machine.h"
#include "hw/systolic.h"
#include "hw/throughput_model.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ------------------------------------------------------------- DeltaCodec

TEST(DeltaCodec, EncodeWrapsNegatives)
{
    EXPECT_EQ(DeltaCodec::encode(0), 0);
    EXPECT_EQ(DeltaCodec::encode(7), 7);
    EXPECT_EQ(DeltaCodec::encode(8), 0);
    EXPECT_EQ(DeltaCodec::encode(-1), 7);
    EXPECT_EQ(DeltaCodec::encode(-9), 7);
}

TEST(DeltaCodec, TwoInputDmaxExhaustive)
{
    // Every pair of values within the modulo-circle bound must compare
    // correctly from residues alone (Fig. 9).
    for (int x = -30; x <= 30; ++x) {
        for (int d = -DeltaCodec::kMaxDiff; d <= DeltaCodec::kMaxDiff; ++d) {
            const int y = x + d;
            const uint8_t rx = DeltaCodec::encode(x);
            const uint8_t ry = DeltaCodec::encode(y);
            EXPECT_EQ(DeltaCodec::secondIsLarger(rx, ry), y >= x)
                << x << " vs " << y;
            EXPECT_EQ(DeltaCodec::dmax2(rx, ry),
                      DeltaCodec::encode(std::max(x, y)));
        }
    }
}

TEST(DeltaCodec, ThreeInputDmaxExhaustive)
{
    for (int x = -10; x <= 10; ++x) {
        for (int dy = -3; dy <= 3; ++dy) {
            for (int dz = -3; dz <= 3; ++dz) {
                if (std::abs(dy - dz) > 3)
                    continue; // pairwise bound (Fig. 9 right)
                const int y = x + dy, z = x + dz;
                EXPECT_EQ(DeltaCodec::dmax3(DeltaCodec::encode(x),
                                            DeltaCodec::encode(y),
                                            DeltaCodec::encode(z)),
                          DeltaCodec::encode(std::max({x, y, z})));
            }
        }
    }
}

TEST(DeltaCodec, DecodeNearExhaustive)
{
    for (int anchor = -20; anchor <= 60; ++anchor) {
        for (int d = -3; d <= 3; ++d) {
            const int value = anchor + d;
            EXPECT_EQ(DeltaCodec::decodeNear(anchor,
                                             DeltaCodec::encode(value)),
                      value)
                << "anchor " << anchor << " value " << value;
        }
    }
}

// ------------------------------------------------------------ EditMachine

class EditMachineProperty : public ::testing::TestWithParam<int>
{};

TEST_P(EditMachineProperty, MatchesWideDatapathCheck)
{
    Rng rng(4000 + GetParam());
    ReferenceParams rp;
    rp.length = 60000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.2;
    ReadSimulator sim(ref, sp);
    const int w = 10 + GetParam() * 7;
    const EditMachine machine(w);
    uint64_t total_violations = 0;
    for (int i = 0; i < 30; ++i) {
        const auto read = sim.simulate(rng, i);
        const Sequence q =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 60);
        const int h0 = 1 + static_cast<int>(rng.pick(50));

        EditMachineStats stats;
        const EditCheckResult hw =
            machine.run(q, t, h0, Scoring::bwaDefault(), &stats);
        const EditCheckResult sw =
            editCheck(q, t, w, h0, Scoring::bwaDefault());
        EXPECT_EQ(hw.region_max, sw.region_max);
        EXPECT_EQ(hw.exit_bound, sw.exit_bound);
        EXPECT_EQ(hw.gscore_bound, sw.gscore_bound);
        total_violations += stats.delta_violations;
        if (t.size() > static_cast<size_t>(w) + 2) {
            EXPECT_GT(stats.cells, 0u);
        }
    }
    // The 3-bit residue datapath must never face an ambiguous compare.
    EXPECT_EQ(total_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditMachineProperty,
                         ::testing::Range(0, 6));

TEST(EditMachine, EmptyRegionIsFree)
{
    const EditMachine machine(50);
    EditMachineStats stats;
    const Sequence q = Sequence::fromString("ACGT");
    const Sequence t = Sequence::fromString("ACGTACGT");
    const EditCheckResult r =
        machine.run(q, t, 10, Scoring::bwaDefault(), &stats);
    EXPECT_EQ(r.scoreEd(), 0);
    EXPECT_EQ(stats.cells, 0u);
}

// --------------------------------------------------------------- Systolic

TEST(Systolic, FunctionalEqualsKernel)
{
    Rng rng(91);
    ReferenceParams rp;
    rp.length = 40000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimulator sim(ref, {});
    const SystolicBswCore core(41);
    for (int i = 0; i < 20; ++i) {
        const auto read = sim.simulate(rng, i);
        const Sequence q =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 40);
        ExtendConfig cfg;
        cfg.band = 41;
        EXPECT_EQ(core.run(q, t, 17), kswExtend(q, t, 17, cfg));
    }
}

TEST(Systolic, LatencyScalesWithBand)
{
    const SystolicBswCore narrow(41), full(101);
    // Same sweep shape: the full-band core pays its wider init/drain
    // (the paper reports 1.9x extension latency advantage).
    const uint64_t ln = narrow.latencyCycles(45, 30);
    const uint64_t lf = full.latencyCycles(45, 30);
    EXPECT_GT(lf, ln);
    EXPECT_NEAR(static_cast<double>(lf) / static_cast<double>(ln), 1.9,
                0.5);
}

TEST(Systolic, SpeculativeExceptionOnSplitLiveIsland)
{
    // Query: block A, junk, block B; target: A directly followed by B.
    // With a small seed score the junk kills the diagonal, the F channel
    // trickles across row 9, and row 10 revives at column 15 after >= 2
    // dead cells: the hardware's speculative termination would have
    // killed the row, so the exception must fire.
    const Sequence a = Sequence::fromString("ACGTACGTAC");
    const Sequence b = Sequence::fromString("GGATCCATGG");
    Sequence q = a;
    q.append(Sequence::fromString("TTTTT"));
    q.append(b);
    Sequence t = a;
    t.append(b);

    const SystolicBswCore core(50);
    BswCoreStats stats;
    core.run(q, t, 2, &stats);
    EXPECT_TRUE(stats.early_term_exception);
}

TEST(Systolic, NoExceptionOnCleanExtension)
{
    Rng rng(93);
    std::vector<Base> bases(80);
    for (auto &x : bases)
        x = static_cast<Base>(rng.pick(4));
    const Sequence q{bases};
    Sequence t = q;
    t.append(Sequence::fromString("ACGTACGT"));
    const SystolicBswCore core(41);
    BswCoreStats stats;
    core.run(q, t, 30, &stats);
    EXPECT_FALSE(stats.early_term_exception);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Systolic, ExceptionsRareOnRealisticWorkload)
{
    Rng rng(95);
    ReferenceParams rp;
    rp.length = 80000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.02;
    ReadSimulator sim(ref, sp);
    const SystolicBswCore core(41);
    int exceptions = 0;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
        const auto read = sim.simulate(rng, i);
        const Sequence q =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 40);
        BswCoreStats stats;
        core.run(q, t, 30, &stats);
        exceptions += stats.early_term_exception;
    }
    EXPECT_LT(exceptions, n / 20); // "extremely rare" (§IV-A)
}

// ------------------------------------------ Device model reuse (no replay)

/**
 * One fuzzed extension job: a query copied from the start of a random
 * source with substitutions and 1-base indels at a random divergence
 * (up to 20%), and a target cut from the same source. Every fourth draw
 * pins the target length to the edit machine's edge cases w+1 and w+2.
 */
ExtensionJob
fuzzJob(Rng &rng, int w)
{
    const int qlen = static_cast<int>(rng.range(1, 160));
    const double div = rng.uniform() * 0.2;
    std::vector<Base> src(static_cast<size_t>(qlen + w + 80));
    for (Base &b : src)
        b = static_cast<Base>(rng.pick(4));
    std::vector<Base> q;
    for (size_t i = 0; q.size() < static_cast<size_t>(qlen) &&
                       i < src.size();
         ++i) {
        if (rng.coin(div / 4))
            continue; // deletion from the query
        if (rng.coin(div / 4))
            q.push_back(static_cast<Base>(rng.pick(4))); // insertion
        q.push_back(rng.coin(div / 2)
                        ? static_cast<Base>((src[i] + 1 + rng.pick(3)) % 4)
                        : src[i]);
    }
    size_t tlen = static_cast<size_t>(qlen) + rng.pick(60);
    switch (rng.pick(8)) {
      case 0: tlen = static_cast<size_t>(w) + 1; break;
      case 1: tlen = static_cast<size_t>(w) + 2; break;
      default: break;
    }
    ExtensionJob job;
    job.query = Sequence(std::move(q));
    job.target = Sequence(std::vector<Base>(
        src.begin(), src.begin() + static_cast<long>(tlen)));
    job.h0 = static_cast<int>(rng.range(1, 60));
    return job;
}

TEST(Systolic, ModelOnBandResultEqualsRun)
{
    Rng rng(97);
    int exceptions = 0;
    for (const int w : {5, 17, 41}) {
        const SystolicBswCore core(w);
        SeedExConfig fcfg;
        fcfg.band = w;
        const SeedExFilter filter(fcfg);
        for (int i = 0; i < 400; ++i) {
            const ExtensionJob job = fuzzJob(rng, w);
            BswCoreStats ran, modeled;
            const ExtendResult res =
                core.run(job.query, job.target, job.h0, &ran);
            // The result the device reuses: a filter rung at this band.
            const ExtendResult narrow =
                filter.run(job.query, job.target, job.h0).narrow;
            ASSERT_EQ(narrow, res) << "w=" << w << " job " << i;
            core.model(job.query, job.target, job.h0, narrow, &modeled);
            EXPECT_EQ(modeled.cycles, ran.cycles) << "w=" << w << " " << i;
            EXPECT_EQ(modeled.rows_processed, ran.rows_processed)
                << "w=" << w << " job " << i;
            EXPECT_EQ(modeled.early_term_exception,
                      ran.early_term_exception)
                << "w=" << w << " job " << i;
            exceptions += ran.early_term_exception;
        }
    }
    EXPECT_GT(exceptions, 0) << "corpus never raised the exception flag";
}

TEST(EditMachine, CyclesClosedFormEqualsRun)
{
    Rng rng(98);
    for (const int w : {5, 17, 41}) {
        const EditMachine machine(w);
        EXPECT_EQ(machine.cycles(w + 1), 0u);
        EXPECT_EQ(machine.cycles(w + 2), static_cast<uint64_t>(w) + 1 + 8);
        for (int i = 0; i < 300; ++i) {
            const ExtensionJob job = fuzzJob(rng, w);
            const int tlen = static_cast<int>(job.target.size());
            EditMachineStats stats;
            machine.run(job.query, job.target, job.h0,
                        Scoring::bwaDefault(), &stats);
            EXPECT_EQ(machine.cycles(tlen), stats.cycles)
                << "w=" << w << " tlen=" << tlen;
            // Independent row count: with a one-base query the machine
            // evaluates exactly one cell per trapezoid row it sweeps.
            EditMachineStats one;
            machine.run(job.query.slice(0, 1), job.target, job.h0,
                        Scoring::bwaDefault(), &one);
            EXPECT_EQ(machine.cycles(tlen),
                      one.cells == 0 ? 0 : w + one.cells + 8)
                << "w=" << w << " tlen=" << tlen;
        }
    }
}

TEST(SpeculatedBand, CappedAtEstimateAndReplayable)
{
    Rng rng(99);
    const SeedExFilter filter{SeedExConfig{}};
    const int w = filter.config().band;
    int capped = 0;
    for (int i = 0; i < 400; ++i) {
        const ExtensionJob job = fuzzJob(rng, w);
        const int est = estimateFullBand(
            static_cast<int>(job.query.size()), filter.config().scoring,
            filter.config().end_bonus);
        const Speculation sp =
            filter.speculate(job.query, job.target, job.h0, nullptr);
        EXPECT_EQ(sp.band, std::min(w, est)) << i;
        capped += sp.band < w;
        // Replaying one filter run at the returned band reproduces the
        // speculation's verdict and narrow result.
        SeedExConfig at_band = filter.config();
        at_band.band = sp.band;
        const FilterOutcome replay =
            SeedExFilter(at_band).run(job.query, job.target, job.h0);
        EXPECT_EQ(replay.narrow, sp.outcome.narrow) << i;
        EXPECT_EQ(replay.verdict, sp.outcome.verdict) << i;
        if (sp.accepted()) {
            EXPECT_EQ(sp.result, sp.outcome.narrow) << i;
        }
    }
    EXPECT_GT(capped, 0) << "no job's estimate fell below the band";
}

// -------------------------------------------------------------- AreaModel

TEST(AreaModel, BswCoreScalesLinearlyInBand)
{
    const AreaModel m;
    const uint64_t a10 = m.bswCoreLuts(10);
    const uint64_t a20 = m.bswCoreLuts(20);
    const uint64_t a40 = m.bswCoreLuts(40);
    EXPECT_EQ(a40 - a20, 2 * (a20 - a10));
}

TEST(AreaModel, EditLadderMatchesPaperRatios)
{
    const AreaModel m;
    const double bsw = static_cast<double>(m.bswCoreLuts(41));
    const double reduced = static_cast<double>(
        m.editCoreLuts(41, {true, false, false}));
    const double delta = static_cast<double>(
        m.editCoreLuts(41, {true, true, false}));
    const double half = static_cast<double>(m.editCoreLuts(41));
    EXPECT_NEAR(bsw / reduced, 1.82, 0.15);  // reduced scoring datapath
    EXPECT_NEAR(bsw / delta, 3.11, 0.25);    // 3-bit delta encoding
    EXPECT_NEAR(bsw / half, 6.06, 0.45);     // half-width PE array
}

TEST(AreaModel, EditMachineOverheadMatchesPaper)
{
    // "Testing mechanisms incur 5.53% area overhead over a narrow band
    // machine" -- the edit core over three BSW cores.
    const AreaModel m;
    const double overhead =
        static_cast<double>(m.editCoreLuts(41)) /
        static_cast<double>(3 * m.bswCoreLuts(41));
    EXPECT_NEAR(overhead, 0.0553, 0.01);
}

TEST(AreaModel, SeedExCoreVsFullBandCore)
{
    const AreaModel m;
    const double ratio =
        static_cast<double>(m.fullBandCoreLuts(101)) /
        static_cast<double>(m.seedexCoreLuts(41));
    EXPECT_NEAR(ratio, 2.3, 0.2); // Fig. 16a
}

TEST(Floorplan, TableIiTotalsPlausible)
{
    const FpgaFloorplan plan;
    const auto rows = plan.combinedImage(41, 3);
    ASSERT_EQ(rows.size(), 7u);
    const auto &total = rows.back();
    EXPECT_GT(total.lut_pct, 40.0);
    EXPECT_LT(total.lut_pct, 70.0); // the paper lands at 53.77 %
    EXPECT_LT(total.bram_pct, 40.0);
    // SeedEx core row close to the published 12.47 %.
    EXPECT_NEAR(rows[3].lut_pct, 12.47, 1.5);
}

TEST(Floorplan, Fig15BreakdownSumsToDevice)
{
    const FpgaFloorplan plan;
    const auto parts = plan.seedexOnlyLutBreakdown(41);
    double sum = 0;
    for (const auto &[label, pct] : parts) {
        EXPECT_GE(pct, 0.0) << label;
        sum += pct;
    }
    EXPECT_NEAR(sum, 100.0, 1e-6);
    // Compute (BSW cores) dominates the SeedEx share (Fig. 15).
    EXPECT_GT(parts[0].second, parts[1].second);
    EXPECT_GT(parts[0].second, parts[3].second);
}

// -------------------------------------------------------- ThroughputModel

class ThroughputFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(97);
        ReferenceParams rp;
        rp.length = 60000;
        ref_ = generateReference(rp, rng);
        ReadSimulator sim(ref_, {});
        for (int i = 0; i < 60; ++i) {
            const auto read = sim.simulate(rng, i);
            ExtensionJob job;
            job.query = (read.reverse ? read.seq.reverseComplement()
                                      : read.seq)
                            .slice(0, 40); // seed flank
            job.target = ref_.slice(read.true_pos, 60);
            job.h0 = 40;
            jobs_.push_back(std::move(job));
        }
        profile_ = WorkloadProfile::measure(jobs_, 41,
                                            Scoring::bwaDefault());
    }

    Sequence ref_;
    std::vector<ExtensionJob> jobs_;
    WorkloadProfile profile_;
};

TEST_F(ThroughputFixture, DeployedSeedExInPaperBallpark)
{
    const ThroughputModel model;
    const ThroughputReport r =
        model.evaluate(AcceleratorConfig::seedexDeployed(), profile_);
    // Paper: 43.9 M ext/s; the exact number depends on the workload's
    // extension lengths, so assert the order of magnitude.
    EXPECT_GT(r.extensions_per_sec, 15e6);
    EXPECT_LT(r.extensions_per_sec, 80e6);
}

TEST_F(ThroughputFixture, IsoAreaSpeedupOverFullBand)
{
    const ThroughputModel model;
    const ThroughputReport seedex =
        model.evaluate(AcceleratorConfig::seedexDeployed(), profile_);
    const ThroughputReport full =
        model.evaluate(AcceleratorConfig::fullBandBaseline(), profile_);
    const double speedup = model.isoAreaSpeedup(seedex, full);
    // Fig. 16c decomposition: 4.4x from area x latency alone (the rest of
    // the paper's 6.0x comes from routing headroom the LUT metric cannot
    // see).
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 8.0);
    // Latency advantage close to the reported 1.9x.
    EXPECT_NEAR(full.latency_us / seedex.latency_us, 1.9, 0.5);
}

// -------------------------------------------------------------- AsicModel

TEST(AsicModel, TableIiiTotals)
{
    const AsicModel m;
    EXPECT_NEAR(m.seedexArea(), 0.944, 0.05);   // paper rounds to 0.98
    EXPECT_NEAR(m.seedexPower(), 1.10, 0.05);   // 1.10 W
    const auto rows = m.table();
    EXPECT_EQ(rows.back().name, "Total");
    EXPECT_NEAR(rows.back().area_mm2, 28.76, 0.1);
    EXPECT_NEAR(rows.back().power_w, 9.81, 0.1);
}

TEST(AsicModel, Fig18Ratios)
{
    const AsicModel m;
    const auto bars = buildFig18(m, 102.0);
    auto find = [&](const std::string &name) {
        for (const auto &b : bars)
            if (b.system == name)
                return b;
        ADD_FAILURE() << "missing " << name;
        return AsicComparison{};
    };
    const auto seedex = find("SeedEx");
    const auto sillax = find("SillaX");
    EXPECT_NEAR(seedex.kernel_kext_per_s_per_mm2 /
                    sillax.kernel_kext_per_s_per_mm2,
                20.0, 18.0); // paper: "20x better performance"
    const auto ert_seedex = find("ERT+SeedEx");
    const auto ert_sillax = find("ERT+Sillax");
    const auto genax = find("GenAx");
    EXPECT_NEAR(ert_seedex.app_kreads_per_s_per_mm2 /
                    ert_sillax.app_kreads_per_s_per_mm2,
                1.56, 0.5);
    EXPECT_NEAR(ert_seedex.app_kreads_per_s_per_mm2 /
                    genax.app_kreads_per_s_per_mm2,
                14.6, 5.0);
    EXPECT_NEAR(ert_seedex.app_kreads_per_s_per_joule /
                    ert_sillax.app_kreads_per_s_per_joule,
                2.45, 1.0);
}

// ------------------------------------------------------------ Accelerator

TEST(Accelerator, BatchResultsMatchFilterWorkflow)
{
    Rng rng(99);
    ReferenceParams rp;
    rp.length = 50000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.1;
    ReadSimulator sim(ref, sp);
    std::vector<ExtensionJob> jobs;
    for (int i = 0; i < 40; ++i) {
        const auto read = sim.simulate(rng, i);
        ExtensionJob job;
        job.query =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        job.target = ref.slice(read.true_pos, job.query.size() + 50);
        job.h0 = 20;
        jobs.push_back(std::move(job));
    }
    SeedExConfig cfg;
    const SeedExAccelerator device({}, cfg);
    const BatchResult batch = device.processBatch(jobs);
    ASSERT_EQ(batch.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const ExtendResult truth =
            kswExtend(jobs[i].query, jobs[i].target, jobs[i].h0, {});
        EXPECT_EQ(batch.results[i].score, truth.score) << i;
        EXPECT_EQ(batch.results[i].qle, truth.qle) << i;
        EXPECT_EQ(batch.results[i].tle, truth.tle) << i;
    }
    EXPECT_EQ(batch.stats.total, jobs.size());
    EXPECT_GT(batch.busy_cycles, batch.device_cycles);
}

TEST(Accelerator, DeviceCyclesBalancedAcrossCores)
{
    // With many equal jobs the busiest core should carry ~1/36 of the
    // work (near-100% utilization, §VII-A).
    Rng rng(101);
    std::vector<Base> b(60);
    for (auto &x : b)
        x = static_cast<Base>(rng.pick(4));
    const Sequence q{b};
    Sequence t = q;
    t.append(q.slice(0, 30));
    std::vector<ExtensionJob> jobs(360, ExtensionJob{q, t, 25});
    const SeedExAccelerator device({}, SeedExConfig{});
    const BatchResult batch = device.processBatch(jobs);
    const double utilization =
        static_cast<double>(batch.busy_cycles) /
        (36.0 * static_cast<double>(batch.device_cycles));
    EXPECT_GT(utilization, 0.95);
}

TEST(Accelerator, ModelReuseMatchesReplayedModel)
{
    // processBatch feeds the speculation's narrow result to the systolic
    // model and charges the edit machine in closed form; replaying the
    // model the long way (a second kernel run per job, a full
    // edit-machine run) must give the same device counters.
    Rng rng(103);
    const SeedExConfig cfg;
    const SeedExAccelerator device({}, cfg);
    const SystolicBswCore bsw(cfg.band, cfg.scoring);
    const EditMachine edit(cfg.band);
    std::vector<ExtensionJob> jobs;
    for (int i = 0; i < 300; ++i)
        jobs.push_back(fuzzJob(rng, cfg.band));
    const BatchResult batch = device.processBatch(jobs);

    std::vector<uint64_t> core_busy(
        static_cast<size_t>(device.organization().totalBswCores()), 0);
    uint64_t busy = 0, edit_cycles = 0, exceptions = 0, checks = 0;
    for (const ExtensionJob &job : jobs) {
        const Speculation sp = device.filter().speculate(
            job.query, job.target, job.h0, nullptr);
        BswCoreStats stats;
        bsw.run(job.query, job.target, job.h0, &stats);
        *std::min_element(core_busy.begin(), core_busy.end()) +=
            stats.cycles;
        busy += stats.cycles;
        if (sp.outcome.ran_edit_machine) {
            EditMachineStats estats;
            edit.run(job.query, job.target, job.h0, cfg.scoring, &estats);
            edit_cycles += estats.cycles;
        }
        if (stats.early_term_exception)
            ++exceptions;
        else if (!sp.accepted())
            ++checks;
    }
    EXPECT_EQ(batch.busy_cycles, busy);
    EXPECT_EQ(batch.device_cycles,
              *std::max_element(core_busy.begin(), core_busy.end()));
    EXPECT_EQ(batch.edit_cycles, edit_cycles);
    EXPECT_GT(edit_cycles, 0u);
    EXPECT_EQ(batch.reruns_exception, exceptions);
    EXPECT_EQ(batch.reruns_checks, checks);
}

// ---------------------------------------------------------------- PeArray

class PeArrayProperty : public ::testing::TestWithParam<int>
{};

TEST_P(PeArrayProperty, MatchesBandedOracle)
{
    Rng rng(7000 + GetParam());
    ReferenceParams rp;
    rp.length = 50000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.15;
    ReadSimulator sim(ref, sp);
    const int band = 5 + GetParam() * 9;
    const PeArraySim array(band);
    for (int it = 0; it < 25; ++it) {
        const auto read = sim.simulate(rng, it);
        const Sequence q =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 50);
        const int h0 = 1 + static_cast<int>(rng.pick(60));
        PeArrayStats stats;
        const ExtendResult hw = array.run(q, t, h0, &stats);
        const ExtendResult sw = extendOracleBanded(
            q, t, h0, Scoring::bwaDefault(), band);
        EXPECT_EQ(hw.score, sw.score);
        EXPECT_EQ(hw.qle, sw.qle);
        EXPECT_EQ(hw.tle, sw.tle);
        EXPECT_EQ(hw.gscore, sw.gscore);
        EXPECT_EQ(hw.gtle, sw.gtle);
        EXPECT_EQ(hw.max_off, sw.max_off);
        EXPECT_LE(stats.peak_active, array.peCount());
        EXPECT_EQ(stats.wavefronts,
                  q.size() + t.size() - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Bands, PeArrayProperty, ::testing::Range(0, 5));

TEST(PeArray, WideBandMatchesUnbandedOracle)
{
    Rng rng(107);
    for (int it = 0; it < 15; ++it) {
        std::vector<Base> qb(40 + rng.pick(40)), tb(60 + rng.pick(60));
        for (auto &x : qb)
            x = static_cast<Base>(rng.pick(4));
        for (auto &x : tb)
            x = static_cast<Base>(rng.pick(4));
        const Sequence q{qb}, t{tb};
        const int h0 = 10 + static_cast<int>(rng.pick(40));
        const PeArraySim array(
            static_cast<int>(q.size() + t.size()) + 1);
        const ExtendResult hw = array.run(q, t, h0);
        const ExtendResult sw =
            extendOracle(q, t, h0, Scoring::bwaDefault());
        EXPECT_EQ(hw.score, sw.score);
        EXPECT_EQ(hw.gscore, sw.gscore);
        EXPECT_EQ(hw.qle, sw.qle);
        EXPECT_EQ(hw.tle, sw.tle);
    }
}

TEST(PeArray, PerfectMatchDiagonal)
{
    const Sequence q = Sequence::fromString("ACGTACGTACGT");
    const PeArraySim array(8);
    PeArrayStats stats;
    const ExtendResult r = array.run(q, q, 5, &stats);
    EXPECT_EQ(r.score, 5 + 12);
    EXPECT_EQ(r.max_off, 0);
    EXPECT_GT(stats.pe_cycles, 0u);
    EXPECT_GT(stats.cycles, stats.wavefronts);
}

TEST(PeArray, EmptyInputs)
{
    const PeArraySim array(8);
    EXPECT_EQ(array.run(Sequence{}, Sequence::fromString("ACG"), 7).score,
              7);
}

} // namespace
} // namespace seedex

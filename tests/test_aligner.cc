#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "aligner/pipeline.h"
#include "aligner/timing_model.h"
#include "hw/accelerator.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"
#include "util/table.h"

namespace seedex {
namespace {

class AlignerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(201);
        ReferenceParams params;
        params.length = 200000;
        params.repeat_fraction = 0.03;
        ref_ = generateReference(params, rng);
    }

    std::vector<std::pair<std::string, Sequence>>
    simulateReads(size_t count, ReadSimParams sp, uint64_t seed,
                  std::vector<SimulatedRead> *truth = nullptr)
    {
        Rng rng(seed);
        ReadSimulator sim(ref_, sp);
        std::vector<std::pair<std::string, Sequence>> reads;
        for (size_t i = 0; i < count; ++i) {
            SimulatedRead r = sim.simulate(rng, i);
            reads.emplace_back(r.name, r.seq);
            if (truth)
                truth->push_back(std::move(r));
        }
        return reads;
    }

    Sequence ref_;
};

// ---------------------------------------------------------------- Seeding

TEST_F(AlignerFixture, SeedsCoverTruePosition)
{
    Rng rng(203);
    FmdIndex index(ref_);
    SeedingParams params;
    for (int it = 0; it < 10; ++it) {
        const size_t pos = rng.pick(ref_.size() - 101);
        const Sequence read = ref_.slice(pos, 101);
        const auto seeds = collectSeeds(index, read, params);
        ASSERT_FALSE(seeds.empty());
        bool found = false;
        for (const Seed &s : seeds) {
            found |= !s.reverse &&
                     s.rbeg - std::min<uint64_t>(s.rbeg, s.qbeg) ==
                         pos - std::min<uint64_t>(pos, 0) &&
                     s.rbeg == pos + static_cast<uint64_t>(s.qbeg);
        }
        EXPECT_TRUE(found) << "no seed on the true diagonal";
    }
}

TEST_F(AlignerFixture, ReverseReadsYieldReverseSeeds)
{
    Rng rng(205);
    FmdIndex index(ref_);
    const size_t pos = rng.pick(ref_.size() - 101);
    const Sequence read = ref_.slice(pos, 101).reverseComplement();
    const auto seeds = collectSeeds(index, read, {});
    ASSERT_FALSE(seeds.empty());
    bool reverse_diag = false;
    for (const Seed &s : seeds)
        reverse_diag |= s.reverse && s.rbeg == pos + s.qbeg;
    EXPECT_TRUE(reverse_diag);
}

// --------------------------------------------------------------- Chaining

TEST(Chaining, ColinearSeedsMerge)
{
    std::vector<Seed> seeds{
        {0, 20, 1000, false, 1},
        {25, 20, 1027, false, 1}, // small consistent gap
        {50, 30, 1050, false, 1},
    };
    const auto chains = chainSeeds(seeds, {});
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].seeds.size(), 3u);
    EXPECT_EQ(chains[0].weight, 70);
}

TEST(Chaining, DifferentLociSplit)
{
    std::vector<Seed> seeds{
        {0, 30, 1000, false, 1},
        {0, 30, 90000, false, 1}, // far away locus
    };
    const auto chains = chainSeeds(seeds, {});
    EXPECT_EQ(chains.size(), 2u);
}

TEST(Chaining, StrandsNeverMix)
{
    std::vector<Seed> seeds{
        {0, 30, 1000, false, 1},
        {35, 30, 1035, true, 1},
    };
    const auto chains = chainSeeds(seeds, {});
    EXPECT_EQ(chains.size(), 2u);
}

TEST(Chaining, DiagonalDriftLimited)
{
    ChainingParams params;
    params.max_diag_diff = 10;
    std::vector<Seed> seeds{
        {0, 20, 1000, false, 1},
        {20, 20, 1100, false, 1}, // 80 off-diagonal: separate chain
    };
    const auto chains = chainSeeds(seeds, params);
    EXPECT_EQ(chains.size(), 2u);
}

TEST(Chaining, WeakOverlappedChainsMasked)
{
    ChainingParams params;
    std::vector<Seed> seeds{
        {0, 80, 1000, false, 1},  // strong chain
        {10, 25, 50000, false, 1} // weak chain inside its query span
    };
    const auto chains = chainSeeds(seeds, params);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].weight, 80);
}

TEST(Chaining, AnchorIsLongestSeed)
{
    Chain chain;
    chain.seeds = {{0, 20, 0, false, 1}, {30, 45, 30, false, 1},
                   {80, 21, 80, false, 1}};
    EXPECT_EQ(chain.anchor().len, 45);
}

/**
 * The pre-retirement greedy pass, kept verbatim as the oracle: scans
 * every chain ever opened, newest first (worst-case quadratic on
 * repeat-dense reads). The production chainSeeds must stay bit-identical
 * while only scanning the active window.
 */
std::vector<Chain>
oracleChainSeeds(const std::vector<Seed> &seeds,
                 const ChainingParams &params)
{
    const auto compatible = [&](const Seed &last, const Seed &seed) {
        if (seed.reverse != last.reverse)
            return false;
        if (seed.rbeg < last.rbeg)
            return false;
        const int64_t rgap = static_cast<int64_t>(seed.rbeg) -
                             static_cast<int64_t>(last.rend());
        const int qgap = seed.qbeg - last.qend();
        if (rgap > params.max_gap || qgap > params.max_gap)
            return false;
        if (std::llabs(seed.diagonal() - last.diagonal()) >
            params.max_diag_diff)
            return false;
        return seed.qend() > last.qend();
    };
    const auto chainWeight = [](const Chain &chain) {
        int weight = 0;
        int covered_to = -1;
        for (const Seed &s : chain.seeds) {
            const int from = std::max(s.qbeg, covered_to);
            if (s.qend() > from)
                weight += s.qend() - from;
            covered_to = std::max(covered_to, s.qend());
        }
        return weight;
    };
    std::vector<Chain> chains;
    for (const Seed &seed : seeds) {
        Chain *home = nullptr;
        for (auto it = chains.rbegin(); it != chains.rend(); ++it) {
            if (it->reverse == seed.reverse &&
                compatible(it->seeds.back(), seed)) {
                home = &*it;
                break;
            }
        }
        if (home) {
            home->seeds.push_back(seed);
        } else {
            Chain chain;
            chain.reverse = seed.reverse;
            chain.seeds.push_back(seed);
            chains.push_back(std::move(chain));
        }
    }
    for (Chain &chain : chains)
        chain.weight = chainWeight(chain);
    std::sort(chains.begin(), chains.end(),
              [](const Chain &a, const Chain &b) {
                  return a.weight > b.weight;
              });
    std::vector<Chain> kept;
    for (Chain &chain : chains) {
        if (kept.size() >= params.max_chains)
            break;
        if (!kept.empty() &&
            chain.weight <
                params.drop_ratio * static_cast<double>(kept[0].weight))
            break;
        bool masked = false;
        for (const Chain &strong : kept) {
            const int lo = std::max(chain.qbeg(), strong.qbeg());
            const int hi = std::min(chain.qend(), strong.qend());
            const int overlap = std::max(0, hi - lo);
            const int span = chain.qend() - chain.qbeg();
            if (span > 0 &&
                overlap > params.mask_level * static_cast<double>(span) &&
                chain.weight < strong.weight) {
                masked = true;
                break;
            }
        }
        if (!masked)
            kept.push_back(std::move(chain));
    }
    return kept;
}

/** Seed lists shaped like a repeat-heavy read: many distant loci per
 *  strand, seeds sorted (forward block then reverse block, rbeg-sorted
 *  within each) exactly as collectSeeds emits them. */
std::vector<Seed>
repeatHeavySeeds(Rng &rng, int loci_per_strand, int seeds_per_locus)
{
    std::vector<Seed> seeds;
    for (int strand = 0; strand < 2; ++strand) {
        uint64_t rbeg = 500 + rng.pick(200);
        for (int l = 0; l < loci_per_strand; ++l) {
            int qbeg = static_cast<int>(rng.pick(30));
            for (int k = 0; k < seeds_per_locus; ++k) {
                seeds.push_back({qbeg, 19, rbeg, strand == 1,
                                 static_cast<int>(rng.pick(40)) + 1});
                qbeg += 10 + static_cast<int>(rng.pick(15));
                rbeg += 10 + rng.pick(15);
            }
            rbeg += 5000 + rng.pick(1000); // next locus: out of max_gap
        }
    }
    return seeds;
}

TEST(Chaining, RetirementBitIdenticalOnRepeatHeavyReads)
{
    // The active-window scan must retire chains aggressively on this
    // workload (hundreds of dead loci) yet keep the output — including
    // chain order and every seed — identical to the full-scan oracle.
    Rng rng(211);
    ChainingParams params;
    for (int it = 0; it < 50; ++it) {
        const auto seeds = repeatHeavySeeds(rng, 40, 4);
        const auto expected = oracleChainSeeds(seeds, params);
        const auto got = chainSeeds(seeds, params);
        ASSERT_EQ(got.size(), expected.size()) << "iteration " << it;
        for (size_t c = 0; c < got.size(); ++c) {
            EXPECT_EQ(got[c].reverse, expected[c].reverse);
            EXPECT_EQ(got[c].weight, expected[c].weight);
            ASSERT_EQ(got[c].seeds.size(), expected[c].seeds.size());
            for (size_t s = 0; s < got[c].seeds.size(); ++s) {
                EXPECT_EQ(got[c].seeds[s].qbeg,
                          expected[c].seeds[s].qbeg);
                EXPECT_EQ(got[c].seeds[s].rbeg,
                          expected[c].seeds[s].rbeg);
                EXPECT_EQ(got[c].seeds[s].len, expected[c].seeds[s].len);
            }
        }
    }
}

TEST(Chaining, RecycledWorkspaceMatchesFreshCalls)
{
    // One workspace + one chain vector reused across many reads (the
    // producer-thread pattern) must reproduce fresh chainSeeds exactly,
    // with the spare slots beyond the returned count ignored.
    Rng rng(213);
    ChainingParams params;
    ChainWorkspace ws;
    std::vector<Chain> recycled;
    for (int it = 0; it < 30; ++it) {
        const auto seeds = repeatHeavySeeds(rng, 8 + it % 20, 3);
        const auto expected = chainSeeds(seeds, params);
        const size_t n = chainSeedsInto(seeds, params, ws, recycled);
        ASSERT_EQ(n, expected.size()) << "iteration " << it;
        for (size_t c = 0; c < n; ++c) {
            EXPECT_EQ(recycled[c].weight, expected[c].weight);
            ASSERT_EQ(recycled[c].seeds.size(),
                      expected[c].seeds.size());
            for (size_t s = 0; s < expected[c].seeds.size(); ++s)
                EXPECT_EQ(recycled[c].seeds[s].rbeg,
                          expected[c].seeds[s].rbeg);
        }
    }
}

// ------------------------------------------------------ End-to-end pipeline

TEST_F(AlignerFixture, CleanReadsAlignPerfectly)
{
    PipelineConfig config;
    Aligner aligner(ref_, config);
    Rng rng(207);
    for (int it = 0; it < 15; ++it) {
        const size_t pos = rng.pick(ref_.size() - 101);
        const Sequence read = ref_.slice(pos, 101);
        const SamRecord rec = aligner.alignRead("r", read);
        ASSERT_TRUE(rec.mapped());
        EXPECT_EQ(rec.pos, pos);
        EXPECT_EQ(rec.cigar.toString(), "101M");
        EXPECT_GE(rec.score, 101);
    }
}

TEST_F(AlignerFixture, SimulatedReadsMapToTruth)
{
    PipelineConfig config;
    Aligner aligner(ref_, config);
    std::vector<SimulatedRead> truth;
    ReadSimParams sp; // defaults: errors + occasional indels
    const auto reads = simulateReads(120, sp, 209, &truth);
    PipelineStats stats;
    const auto records = aligner.alignBatch(reads, &stats);
    ASSERT_EQ(records.size(), reads.size());
    size_t correct = 0, mapped = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        if (!records[i].mapped())
            continue;
        ++mapped;
        const bool strand_ok =
            ((records[i].flag & kSamFlagReverse) != 0) ==
            truth[i].reverse;
        const int64_t delta =
            static_cast<int64_t>(records[i].pos) -
            static_cast<int64_t>(truth[i].true_pos);
        correct += strand_ok && std::llabs(delta) <= 45;
    }
    EXPECT_GT(mapped, reads.size() * 95 / 100);
    EXPECT_GT(correct, mapped * 95 / 100);
    EXPECT_GT(stats.extensions, 0u);
    EXPECT_GT(stats.times.total(), 0.0);
}

TEST_F(AlignerFixture, ReverseStrandRecordStoresRevComp)
{
    PipelineConfig config;
    Aligner aligner(ref_, config);
    Rng rng(211);
    const size_t pos = rng.pick(ref_.size() - 101);
    const Sequence fwd = ref_.slice(pos, 101);
    const Sequence read = fwd.reverseComplement();
    const SamRecord rec = aligner.alignRead("r", read);
    ASSERT_TRUE(rec.mapped());
    EXPECT_TRUE(rec.flag & kSamFlagReverse);
    EXPECT_EQ(rec.pos, pos);
    EXPECT_EQ(rec.seq, fwd.toString());
}

TEST_F(AlignerFixture, MapqSeparatesUniqueFromRepeat)
{
    // Plant an exact repeat, then reads from it should get low mapq.
    Sequence ref = ref_;
    const Sequence unit = ref.slice(1000, 300);
    for (size_t i = 0; i < unit.size(); ++i)
        ref[150000 + i] = unit[i];
    PipelineConfig config;
    Aligner aligner(ref, config);

    const SamRecord unique_rec =
        aligner.alignRead("u", ref.slice(50000, 101));
    const SamRecord repeat_rec =
        aligner.alignRead("r", ref.slice(1100, 101));
    ASSERT_TRUE(unique_rec.mapped());
    ASSERT_TRUE(repeat_rec.mapped());
    EXPECT_GT(unique_rec.mapq, repeat_rec.mapq);
    EXPECT_LE(repeat_rec.mapq, 10);
}

TEST(ApproxMapq, MonotoneAndVanishingAtTies)
{
    const Scoring scoring; // match = 1, so the sub floor is 10

    // Ties and worse-than-floor seconds are MAPQ 0.
    EXPECT_EQ(approxMapq(100, 100, scoring), 0);
    EXPECT_EQ(approxMapq(100, 120, scoring), 0);
    EXPECT_EQ(approxMapq(0, 0, scoring), 0);

    // A near-tie must not look confidently mapped (the old "+ 10" floor
    // reported 11 here): MAPQ -> 0 as the gap -> 0.
    EXPECT_LE(approxMapq(100, 99, scoring), 1);

    // Monotone non-decreasing in the score gap at fixed best...
    int prev = -1;
    for (int sub = 99; sub >= 10; --sub) {
        const int q = approxMapq(100, sub, scoring);
        EXPECT_GE(q, prev) << "sub=" << sub;
        EXPECT_GE(q, 0);
        EXPECT_LE(q, 60);
        prev = q;
    }
    // ...reaching the 60 cap for a dominant best score.
    EXPECT_EQ(prev, 60);
    EXPECT_EQ(approxMapq(1000, 10, scoring), 60);
}

TEST_F(AlignerFixture, SamRenderShape)
{
    PipelineConfig config;
    Aligner aligner(ref_, config);
    const SamRecord rec = aligner.alignRead("q0", ref_.slice(777, 101));
    const std::string line = rec.render();
    // 1-based position and mandatory columns present.
    EXPECT_NE(line.find("q0\t0\tref\t778\t"), std::string::npos);
    EXPECT_NE(line.find("101M"), std::string::npos);
    EXPECT_NE(line.find("AS:i:"), std::string::npos);
}

// ---------------------------------------------------- SAM render oracle

/** The CIGAR text as the renderer once formatted it, op by op with
 *  strprintf: the oracle Cigar::toString() must match byte for byte. */
std::string
printfCigar(const Cigar &cigar)
{
    if (cigar.empty())
        return "*";
    std::string out;
    for (const CigarOp &op : cigar.ops())
        out += strprintf("%d%c", op.len, op.op);
    return out;
}

/** The SAM line as the renderer once formatted it, one strprintf call:
 *  the oracle SamRecord::render() must match byte for byte. */
std::string
printfRender(const SamRecord &r)
{
    const bool unmapped = (r.flag & kSamFlagUnmapped) != 0;
    const bool placed = r.rname != "*";
    const std::string cigar_text =
        unmapped ? std::string("*") : printfCigar(r.cigar);
    return strprintf("%s\t%d\t%s\t%llu\t%d\t%s\t%s\t%llu\t%lld\t%s"
                     "\t*\tAS:i:%d\tXS:i:%d",
                     r.qname.c_str(), r.flag, r.rname.c_str(),
                     static_cast<unsigned long long>(placed ? r.pos + 1
                                                            : 0),
                     unmapped ? 0 : r.mapq, cigar_text.c_str(),
                     r.rnext.c_str(),
                     static_cast<unsigned long long>(
                         r.rnext == "*" ? 0 : r.pnext + 1),
                     static_cast<long long>(unmapped ? 0 : r.tlen),
                     r.seq.c_str(), r.score, r.sub_score);
}

/** A coordinate: 0, small, or anywhere up to 2^40. */
uint64_t
randomCoordinate(Rng &rng)
{
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return rng.below(1000);
      case 2: return rng.below(1ULL << 40);
      default: return 1ULL << 40;
    }
}

/** A record with every field drawn independently, so flag 0x4 meets
 *  placed and unplaced records, non-empty CIGARs and non-zero TLENs,
 *  and RNEXT '*' meets non-zero PNEXTs. */
SamRecord
randomSamRecord(Rng &rng)
{
    static const std::vector<std::string> kContigs = {"chr1", "chrUn_x"};
    SamRecord r;
    // QNAME: 1-254 characters of the SAM alphabet [!-?A-~].
    const size_t qlen = 1 + rng.below(254);
    for (size_t i = 0; i < qlen; ++i) {
        const int k = static_cast<int>(rng.below(93));
        r.qname += static_cast<char>(k < 31 ? '!' + k : 'A' + (k - 31));
    }
    r.flag = static_cast<int>(rng.below(256)); // every pair/strand bit
    r.rname = rng.coin(0.3) ? "*" : kContigs[rng.below(2)];
    r.pos = randomCoordinate(rng);
    r.mapq = static_cast<int>(rng.below(61));
    if (!rng.coin(0.15)) {
        static const char kOps[] = {'S', 'M', 'I', 'D'};
        static const uint32_t kMaxLen[] = {9, 999, 1000000};
        std::vector<CigarOp> ops(1 + rng.below(6));
        for (CigarOp &op : ops)
            op = {kOps[rng.below(4)],
                  static_cast<int>(1 + rng.below(kMaxLen[rng.below(3)]))};
        r.cigar = Cigar(std::move(ops));
    }
    switch (rng.below(3)) {
      case 0: r.rnext = "*"; break;
      case 1: r.rnext = "="; break;
      default: r.rnext = kContigs[rng.below(2)]; break;
    }
    r.pnext = randomCoordinate(rng);
    r.tlen = static_cast<int64_t>(randomCoordinate(rng)) *
        (rng.coin(0.5) ? -1 : 1);
    const size_t slen = rng.below(302);
    for (size_t i = 0; i < slen; ++i)
        r.seq += "ACGTN"[rng.below(5)];
    r.score = static_cast<int>(rng.range(-200, 400));
    r.sub_score = static_cast<int>(rng.range(-200, 400));
    return r;
}

TEST(SamRender, MatchesPrintfOracleOnRandomRecords)
{
    Rng rng(2020);
    int unmapped_placed = 0, unmapped_unplaced = 0, star_rnext = 0;
    int negative_tlen = 0, empty_cigar = 0;
    for (int i = 0; i < 20000; ++i) {
        const SamRecord r = randomSamRecord(rng);
        ASSERT_EQ(r.cigar.toString(), printfCigar(r.cigar)) << "record " << i;
        ASSERT_EQ(r.render(), printfRender(r)) << "record " << i;
        unmapped_placed += !r.mapped() && r.rname != "*";
        unmapped_unplaced += !r.mapped() && r.rname == "*";
        star_rnext += r.rnext == "*" && r.pnext != 0;
        negative_tlen += r.tlen < 0;
        empty_cigar += r.cigar.empty();
    }
    // The draw reached every rule the renderer applies.
    EXPECT_GT(unmapped_placed, 0);
    EXPECT_GT(unmapped_unplaced, 0);
    EXPECT_GT(star_rnext, 0);
    EXPECT_GT(negative_tlen, 0);
    EXPECT_GT(empty_cigar, 0);
}

TEST_F(AlignerFixture, UnmappableReadReportedUnmapped)
{
    PipelineConfig config;
    Aligner aligner(ref_, config);
    // A read of all-As is unlikely to have a 19-mer exact match in a
    // GC-balanced random reference... but possible; use a fixed junk
    // pattern with period 2 instead and verify the flag when unmapped.
    Sequence junk;
    for (int i = 0; i < 101; ++i)
        junk.push_back(i % 2 ? kBaseA : kBaseT);
    const SamRecord rec = aligner.alignRead("junk", junk);
    if (!rec.mapped()) {
        EXPECT_EQ(rec.cigar.toString(), "*");
        EXPECT_NE(rec.render().find("\t4\t"), std::string::npos);
    }
}

// ------------------------- The paper's claim at application level (Fig 13)

class PipelineEquivalence : public AlignerFixture,
                            public ::testing::WithParamInterface<int>
{};

TEST_P(PipelineEquivalence, SeedExPipelineBitEquivalentToFullBand)
{
    const int band = GetParam();
    std::vector<SimulatedRead> truth;
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.05;
    sp.long_indel_max = 70; // SV-scale events stress the checks
    const auto reads = simulateReads(80, sp, 300 + band, &truth);

    PipelineConfig base;
    base.engine = EngineKind::FullBand;
    Aligner baseline(ref_, base);
    const auto expected = baseline.alignBatch(reads);

    PipelineConfig sx;
    sx.engine = EngineKind::SeedEx;
    sx.band = band;
    Aligner seedex_aligner(ref_, sx);
    PipelineStats stats;
    const auto got = seedex_aligner.alignBatch(reads, &stats);

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].sameAlignment(expected[i]))
            << "read " << i << "\n  full: " << expected[i].render()
            << "\n  seedex: " << got[i].render();
    }
    EXPECT_GT(stats.filter.total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Bands, PipelineEquivalence,
                         ::testing::Values(5, 10, 41, 100));

TEST_F(AlignerFixture, PlainBandedPipelineDivergesAtSmallBand)
{
    // The motivation for the checks: without them a narrow band changes
    // outputs (Fig. 13's BSW curve).
    std::vector<SimulatedRead> truth;
    ReadSimParams sp;
    sp.long_indel_read_fraction = 0.3; // force wide-band events
    const auto reads = simulateReads(60, sp, 401, &truth);

    PipelineConfig base;
    Aligner baseline(ref_, base);
    const auto expected = baseline.alignBatch(reads);

    PipelineConfig banded;
    banded.engine = EngineKind::Banded;
    banded.band = 5;
    Aligner narrow(ref_, banded);
    const auto got = narrow.alignBatch(reads);

    size_t diffs = 0;
    for (size_t i = 0; i < got.size(); ++i)
        diffs += !got[i].sameAlignment(expected[i]);
    EXPECT_GT(diffs, 0u);
}

// ------------------------------------------------------- Extension driver

/** An oriented read and one of its chains: the driver's input. */
struct DriverCase
{
    Sequence read;
    Chain chain;
};

/** One-seed chain anchored at read [qbeg, qbeg + len) = ref rbeg. */
Chain
oneSeedChain(int qbeg, int len, uint64_t rbeg, bool reverse)
{
    Chain chain;
    chain.reverse = reverse;
    chain.seeds.push_back({qbeg, len, rbeg, reverse, 1});
    chain.weight = len;
    return chain;
}

/** Reference bases [pos, pos + len) with a substitution every 17th
 *  base, so both flanks need real DP. */
Sequence
mutatedSlice(const Sequence &ref, size_t pos, size_t len)
{
    Sequence s = ref.slice(pos, len);
    for (size_t i = 3; i < s.size(); i += 17)
        s[i] = static_cast<Base>((s[i] + 1) % 4);
    return s;
}

void
expectSameAlignment(const ChainAlignment &a, const ChainAlignment &b,
                    const std::string &what)
{
    EXPECT_EQ(a.score, b.score) << what;
    EXPECT_EQ(a.reverse, b.reverse) << what;
    EXPECT_EQ(a.qbeg, b.qbeg) << what;
    EXPECT_EQ(a.qend, b.qend) << what;
    EXPECT_EQ(a.rbeg, b.rbeg) << what;
    EXPECT_EQ(a.rend, b.rend) << what;
    EXPECT_EQ(a.seed_score, b.seed_score) << what;
    EXPECT_EQ(a.max_off, b.max_off) << what;
}

TEST_F(AlignerFixture, DriverBatchEqualsChainByChain)
{
    const ExtensionParams params;
    const uint64_t ref_len = ref_.size();
    std::vector<DriverCase> cases;
    // Seeded and chained simulated reads: both strands, multi-seed
    // chains, several chains per read.
    const FmdIndex index(ref_);
    ChainWorkspace cws;
    std::vector<Chain> chains;
    for (const auto &[name, read] : simulateReads(40, {}, 611)) {
        const size_t n = chainSeedsInto(collectSeeds(index, read, {}), {},
                                        cws, chains);
        for (size_t c = 0; c < n; ++c)
            cases.push_back({chains[c].reverse ? read.reverseComplement()
                                               : read,
                             chains[c]});
    }
    // Edge shapes, on both strands: an anchor at read position 0 (no
    // left flank), one ending at the read end (no right flank), and
    // anchors within window_slack of either reference end, where the
    // window is cut shorter than the flank.
    const int tail = 20;
    Sequence over_start;
    for (int i = 0; i < tail; ++i)
        over_start.push_back(static_cast<Base>(i % 4));
    over_start.append(mutatedSlice(ref_, 0, 81));
    Sequence over_end = mutatedSlice(ref_, ref_len - 81, 81);
    for (int i = 0; i < tail; ++i)
        over_end.push_back(static_cast<Base>(i % 4));
    for (const bool reverse : {false, true}) {
        cases.push_back({mutatedSlice(ref_, 5000, 101),
                         oneSeedChain(0, 30, 5000, reverse)});
        cases.push_back({mutatedSlice(ref_, 6000, 101),
                         oneSeedChain(71, 30, 6071, reverse)});
        cases.push_back({mutatedSlice(ref_, 10, 101),
                         oneSeedChain(40, 25, 50, reverse)});
        cases.push_back({over_start, oneSeedChain(50, 16, 30, reverse)});
        cases.push_back({mutatedSlice(ref_, ref_len - 120, 101),
                         oneSeedChain(30, 25, ref_len - 90, reverse)});
        cases.push_back({over_end, oneSeedChain(40, 16, ref_len - 41,
                                                reverse)});
    }
    std::vector<ChainSlot> slots;
    for (const DriverCase &c : cases)
        slots.push_back({&c.chain, &c.read, {}});

    SeedExConfig sx;
    sx.band = 10; // narrow enough that some flanks are rerun
    const auto make = [&](int kind) -> std::unique_ptr<ExtensionEngine> {
        if (kind == 0)
            return std::make_unique<FullBandEngine>();
        if (kind == 1)
            return std::make_unique<BandedEngine>(8);
        return std::make_unique<SeedExEngine>(sx);
    };
    ExtensionBatch batch;
    for (int kind = 0; kind < 3; ++kind) {
        const auto one = make(kind);
        const auto all = make(kind);
        int submits = 0;
        extendChains(slots, ref_, params, batch, [&](ExtensionBatch &b) {
            ++submits;
            submitToEngine(*all, b);
        });
        EXPECT_EQ(submits, 2) << "one batch of left, one of right flanks";
        for (size_t i = 0; i < cases.size(); ++i)
            expectSameAlignment(
                slots[i].aln,
                extendChain(cases[i].chain, cases[i].read, ref_, *one,
                            params),
                one->name() + " case " + std::to_string(i));
        EXPECT_EQ(all->calls(), one->calls()) << one->name();
    }

    // The device model as the submit step gives the SeedEx engine's
    // results (slots still hold them from the last pass above).
    std::vector<ChainSlot> device_slots = slots;
    const SeedExAccelerator device(AcceleratorOrganization{}, sx);
    uint64_t device_reruns = 0;
    extendChains(device_slots, ref_, params, batch, [&](ExtensionBatch &b) {
        BatchResult res = device.processBatch(b.jobs());
        device_reruns += res.reruns_checks + res.reruns_exception;
        b.results = std::move(res.results);
    });
    EXPECT_GT(device_reruns, 0u) << "no flank exercised the rerun path";
    for (size_t i = 0; i < cases.size(); ++i)
        expectSameAlignment(device_slots[i].aln, slots[i].aln,
                            "device case " + std::to_string(i));
}

// ------------------------------------------------------------ Fig17 model

TEST(TimingModel, NormalizedBarsAndSpeedups)
{
    EndToEndInputs in;
    in.software = {4.0, 5.0, 1.0};
    in.seedex_device_seconds = 0.3;
    in.rerun_seconds = 0.1;
    in.seeding_accel_factor = 8.0;
    const auto bars = buildFig17(in);
    ASSERT_EQ(bars.size(), 6u);
    EXPECT_NEAR(bars[0].total(), 1.0, 1e-9); // BWA-MEM normalized
    // Acceleration monotonicity within each family.
    EXPECT_LT(bars[1].total(), bars[0].total());
    EXPECT_LT(bars[2].total(), bars[1].total());
    EXPECT_LT(bars[4].total(), bars[3].total());
    EXPECT_LT(bars[5].total(), bars[4].total());
    // Fully accelerated BWA-MEM beats software by a large factor.
    EXPECT_GT(bars[0].total() / bars[2].total(), 2.0);
    // With only SeedEx, seeding dominates (the §VII-B bottleneck shift).
    EXPECT_GT(bars[1].seeding, bars[1].extension);
}

} // namespace
} // namespace seedex

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "aligner/paired.h"
#include "aligner/threaded.h"
#include "apps/cli.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ======================================================================
// Differential wall: the threaded paired pipeline (any thread shape)
// must reproduce the single-threaded PairedAligner oracle byte for byte,
// on a corpus that exercises every pair category — proper, rescued,
// discordant, and unmappable mates.
// ======================================================================

class PairedWall : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(401);
        ReferenceParams params;
        params.length = 150000;
        ref_ = generateReference(params, rng);
    }

    /** Interleaved (R1 at 2i, R2 at 2i+1) corpus of `n_pairs` pairs:
     *  ~80% clean FR fragments, ~10% shredded second mates (seedless,
     *  rescue bait), ~5% discordant second mates (mapped elsewhere),
     *  ~5% garbage second mates (unmappable, rescue must fail). */
    std::vector<std::pair<std::string, Sequence>>
    buildCorpus(size_t n_pairs, uint64_t seed)
    {
        Rng rng(seed);
        ReadSimulator sim(ref_, ReadSimParams::illumina());
        std::vector<std::pair<std::string, Sequence>> reads;
        reads.reserve(n_pairs * 2);
        for (size_t i = 0; i < n_pairs; ++i) {
            const SimulatedPair pair = sim.simulatePair(rng, i);
            Sequence second = pair.second.seq;
            if (i % 10 == 3) {
                // Shredded mate: a substitution every 12 bases leaves no
                // 19-mer seed, but ~92% identity keeps rescue confident.
                for (size_t p = 5; p < second.size(); p += 12)
                    second[p] = static_cast<Base>((second[p] + 1) % 4);
            } else if (i % 20 == 7) {
                // Discordant mate: an independent read from a random
                // locus/strand — mapped, but not a proper pair.
                second = sim.simulate(rng, 1000000 + i).seq;
            } else if (i % 20 == 15) {
                // Garbage mate: uniform random bases; stays unmapped and
                // the rescue attempt must fail its confidence gate.
                std::vector<Base> junk(second.size());
                for (Base &b : junk)
                    b = static_cast<Base>(rng.pick(4));
                second = Sequence(std::move(junk));
            }
            reads.emplace_back(pair.first.name, pair.first.seq);
            reads.emplace_back(pair.second.name, std::move(second));
        }
        return reads;
    }

    Sequence ref_;
};

TEST_F(PairedWall, ThreadedMatchesOracleBitExactlyAcrossThreadShapes)
{
    const size_t n_pairs = 5000;
    const auto reads = buildCorpus(n_pairs, 4001);

    // Oracle: single-threaded PairedAligner over the SeedEx engine.
    PairedConfig oconfig;
    oconfig.pipeline.engine = EngineKind::SeedEx;
    PairedAligner oracle(ref_, oconfig);
    std::vector<std::string> expect;
    expect.reserve(reads.size());
    uint64_t oracle_rescues = 0, oracle_proper = 0, oracle_discordant = 0,
             oracle_half_mapped = 0;
    for (size_t i = 0; i + 1 < reads.size(); i += 2) {
        const PairedResult r = oracle.alignPair(
            reads[i].first, reads[i].second, reads[i + 1].second);
        oracle_rescues += r.rescued ? 1 : 0;
        oracle_proper += r.proper ? 1 : 0;
        if (r.first.mapped() && r.second.mapped() && !r.proper)
            ++oracle_discordant;
        if (r.first.mapped() != r.second.mapped())
            ++oracle_half_mapped;
        expect.push_back(r.first.render());
        expect.push_back(r.second.render());
    }
    // The corpus must actually exercise every category the wall claims
    // to cover, or the differential below proves less than advertised.
    EXPECT_GT(oracle_rescues, n_pairs / 20) << "rescue bait not rescued";
    EXPECT_GT(oracle_proper, n_pairs * 3 / 4);
    EXPECT_GT(oracle_discordant, n_pairs / 50);
    EXPECT_GT(oracle_half_mapped, 0u) << "no failed-rescue pairs";

    const auto run_threaded = [&](int seeding, int fpga) {
        ThreadedConfig config;
        config.pipeline.engine = oconfig.pipeline.engine;
        config.seeding_threads = seeding;
        config.fpga_threads = fpga;
        config.paired = true;
        config.insert = oconfig.insert;
        const PairedCounters before = pairedCounters();
        const std::vector<SamRecord> recs =
            alignThreaded(ref_, reads, config);
        const PairedCounters after = pairedCounters();
        ASSERT_EQ(recs.size(), reads.size());
        for (size_t j = 0; j < recs.size(); ++j)
            ASSERT_EQ(recs[j].render(), expect[j])
                << "thread shape " << seeding << "+" << fpga
                << " diverges from oracle at record " << j;
        EXPECT_EQ(after.pairs - before.pairs, n_pairs);
        EXPECT_EQ(after.rescues - before.rescues, oracle_rescues);
        EXPECT_EQ(after.proper - before.proper, oracle_proper);
        EXPECT_GT(after.rescue_extensions - before.rescue_extensions, 0u);
    };
    run_threaded(1, 1);
    run_threaded(4, 2);
}

TEST_F(PairedWall, PairFlagAndMateFieldReciprocity)
{
    const auto reads = buildCorpus(600, 4007);
    ThreadedConfig config;
    config.seeding_threads = 2;
    config.fpga_threads = 2;
    config.paired = true;
    const std::vector<SamRecord> recs = alignThreaded(ref_, reads, config);
    ASSERT_EQ(recs.size(), reads.size());
    for (size_t i = 0; i + 1 < recs.size(); i += 2) {
        const SamRecord &a = recs[i];
        const SamRecord &b = recs[i + 1];
        // Adjacent records of one pair share the suffix-free QNAME.
        ASSERT_EQ(a.qname, b.qname) << i;
        EXPECT_EQ(a.qname.find('/'), std::string::npos);
        // 0x1 on both; exactly one first-in-pair, one second-in-pair.
        EXPECT_TRUE(a.flag & kSamFlagPaired);
        EXPECT_TRUE(b.flag & kSamFlagPaired);
        EXPECT_TRUE(a.flag & kSamFlagFirstInPair);
        EXPECT_FALSE(a.flag & kSamFlagSecondInPair);
        EXPECT_TRUE(b.flag & kSamFlagSecondInPair);
        EXPECT_FALSE(b.flag & kSamFlagFirstInPair);
        // Mate-unmapped and mate-reverse mirror the partner's state.
        EXPECT_EQ(bool(a.flag & kSamFlagMateUnmapped), !b.mapped()) << i;
        EXPECT_EQ(bool(b.flag & kSamFlagMateUnmapped), !a.mapped()) << i;
        if (b.mapped())
            EXPECT_EQ(bool(a.flag & kSamFlagMateReverse),
                      bool(b.flag & kSamFlagReverse))
                << i;
        if (a.mapped())
            EXPECT_EQ(bool(b.flag & kSamFlagMateReverse),
                      bool(a.flag & kSamFlagReverse))
                << i;
        // Proper is symmetric and implies an FR same-contig pair.
        EXPECT_EQ(bool(a.flag & kSamFlagProperPair),
                  bool(b.flag & kSamFlagProperPair))
            << i;
        if (a.flag & kSamFlagProperPair) {
            ASSERT_TRUE(a.mapped() && b.mapped()) << i;
            EXPECT_EQ(a.rname, b.rname);
            EXPECT_NE(bool(a.flag & kSamFlagReverse),
                      bool(b.flag & kSamFlagReverse))
                << i;
        }
        if (a.mapped() && b.mapped()) {
            // RNEXT/PNEXT point at each other; TLEN is reciprocal with
            // the leftmost mate positive (ties broken first-positive).
            EXPECT_EQ(a.pnext, b.pos) << i;
            EXPECT_EQ(b.pnext, a.pos) << i;
            if (a.rname == b.rname) {
                EXPECT_EQ(a.rnext, "=") << i;
                EXPECT_EQ(b.rnext, "=") << i;
                EXPECT_EQ(a.tlen + b.tlen, 0) << i;
                EXPECT_NE(a.tlen, 0) << i;
                const SamRecord &pos_rec = a.tlen > 0 ? a : b;
                const SamRecord &neg_rec = a.tlen > 0 ? b : a;
                EXPECT_LE(pos_rec.pos, neg_rec.pos) << i;
            } else {
                EXPECT_EQ(a.rnext, b.rname) << i;
                EXPECT_EQ(b.rnext, a.rname) << i;
                EXPECT_EQ(a.tlen, 0) << i;
                EXPECT_EQ(b.tlen, 0) << i;
            }
        }
    }
}

// ======================================================================
// PairedReadSource: structural errors must throw with origin + ordinal,
// never desynchronize or silently drop records.
// ======================================================================

/** Build FASTQ text from (name, bases) pairs. */
std::string
fastq(const std::vector<std::pair<std::string, std::string>> &recs,
      const char *eol = "\n")
{
    std::string out;
    for (const auto &[name, seq] : recs) {
        out += "@" + name + eol;
        out += seq + eol;
        out += "+" + std::string(eol);
        out += std::string(seq.size(), 'I') + eol;
    }
    return out;
}

TEST(PairedReadSource, ZipsTwoStreamsAndCanonicalizesNames)
{
    std::istringstream r1(fastq({{"p1/1 lane=1", "ACGT"},
                                 {"p2/1", "GGGG"}}));
    std::istringstream r2(fastq({{"p1/2 lane=1", "TTTT"},
                                 {"p2/2", "CCCC"}}));
    PairedReadSource src(r1, r2);
    EXPECT_FALSE(src.interleaved());
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.name, "p1");
    EXPECT_EQ(rec.first.toString(), "ACGT");
    EXPECT_EQ(rec.second.toString(), "TTTT");
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.name, "p2");
    EXPECT_FALSE(src.next(rec));
    EXPECT_EQ(src.pairsRead(), 2u);
}

TEST(PairedReadSource, MateNameMismatchThrowsWithOriginAndOrdinal)
{
    std::istringstream r1(fastq({{"p1/1", "ACGT"}, {"p2/1", "ACGT"}}));
    std::istringstream r2(fastq({{"p1/2", "ACGT"}, {"px/2", "ACGT"}}));
    PairedReadSource src(r1, r2);
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    try {
        src.next(rec);
        FAIL() << "mismatch not diagnosed";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mate-name mismatch at pair 2"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("<stream:r1>"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'p2'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'px'"), std::string::npos) << msg;
    }
}

TEST(PairedReadSource, TruncatedSecondStreamThrowsWithCounts)
{
    std::istringstream r1(fastq({{"p1/1", "ACGT"}, {"p2/1", "ACGT"}}));
    std::istringstream r2(fastq({{"p1/2", "ACGT"}}));
    PairedReadSource src(r1, r2);
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    try {
        src.next(rec);
        FAIL() << "truncation not diagnosed";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("truncated at pair 2"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ended after 1 record(s)"), std::string::npos)
            << msg;
    }
}

TEST(PairedReadSource, TruncatedFirstStreamThrowsToo)
{
    std::istringstream r1(fastq({{"p1/1", "ACGT"}}));
    std::istringstream r2(fastq({{"p1/2", "ACGT"}, {"p2/2", "ACGT"}}));
    PairedReadSource src(r1, r2);
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_THROW(src.next(rec), std::runtime_error);
}

TEST(PairedReadSource, InterleavedOddRecordCountThrows)
{
    std::istringstream in(fastq(
        {{"p1/1", "ACGT"}, {"p1/2", "ACGT"}, {"p2/1", "ACGT"}}));
    PairedReadSource src(in, "reads.fq");
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    try {
        src.next(rec);
        FAIL() << "odd record count not diagnosed";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("reads.fq"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated at pair 2"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("no mate"), std::string::npos) << msg;
    }
}

TEST(PairedReadSource, InterleavedMismatchNamesBothRecords)
{
    std::istringstream in(fastq({{"p1/1", "ACGT"}, {"p9/2", "ACGT"}}));
    PairedReadSource src(in, "reads.fq");
    PairedRecord rec;
    try {
        src.next(rec);
        FAIL() << "mismatch not diagnosed";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mate-name mismatch at pair 1"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'p1'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'p9'"), std::string::npos) << msg;
    }
}

TEST(PairedReadSource, InterleavedToleratesCrlfAndBlankSeparators)
{
    // CRLF line endings plus blank lines between records must parse
    // (FastqReader contract); pairing must not desynchronize.
    std::string text = fastq({{"p1/1", "ACGT"}}, "\r\n");
    text += "\r\n";
    text += fastq({{"p1/2", "TTTT"}}, "\r\n");
    text += "\r\n\r\n";
    text += fastq({{"p2/1", "GG"}, {"p2/2", "CC"}}, "\r\n");
    std::istringstream in(text);
    PairedReadSource src(in, "reads.fq");
    PairedRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.name, "p1");
    EXPECT_EQ(rec.first.toString(), "ACGT");
    EXPECT_EQ(rec.second.toString(), "TTTT");
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.name, "p2");
    EXPECT_FALSE(src.next(rec));
}

TEST(PairedReadSource, BlankLineInsideRecordIsDiagnosedNotDesynced)
{
    // A blank bases line inside record 2 must throw (with the record
    // ordinal, via FastqReader), not shift the 4-line frame.
    std::istringstream in(
        "@p1/1\nACGT\n+\nIIII\n@p1/2\n\n+\nIIII\n");
    PairedReadSource src(in, "reads.fq");
    PairedRecord rec;
    try {
        src.next(rec);
        FAIL() << "blank bases line not diagnosed";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("record 2"), std::string::npos) << msg;
    }
}

TEST(PairedReadSource, CanonicalNameStripsTokenAndMateSuffix)
{
    EXPECT_EQ(PairedReadSource::canonicalName("read"), "read");
    EXPECT_EQ(PairedReadSource::canonicalName("read/1"), "read");
    EXPECT_EQ(PairedReadSource::canonicalName("read/2 descr"), "read");
    EXPECT_EQ(PairedReadSource::canonicalName("read extra words"),
              "read");
    // Only a trailing /1 or /2 is a mate suffix.
    EXPECT_EQ(PairedReadSource::canonicalName("read/3"), "read/3");
    EXPECT_EQ(PairedReadSource::canonicalName("read/12"), "read/12");
    EXPECT_EQ(PairedReadSource::canonicalName("/1"), "/1");
}

// ======================================================================
// Insert-size estimator: parameter recovery, order invariance (the
// thread-count-invariance mechanism), robust outlier rejection, and the
// observation gates.
// ======================================================================

/** A mapped 101M record at `pos` for estimator feeding. */
SamRecord
mappedRecord(uint64_t pos, bool reverse, int mapq = 60,
             const std::string &rname = "ref")
{
    SamRecord rec;
    rec.qname = "est";
    rec.flag = reverse ? kSamFlagReverse : 0;
    rec.rname = rname;
    rec.pos = pos;
    rec.mapq = mapq;
    rec.cigar = Cigar::fromString("101M");
    return rec;
}

/** Feed one FR pair with the given insert to `est`. */
void
feedInsert(InsertEstimator &est, int64_t insert, uint64_t at = 1000)
{
    est.observe(mappedRecord(at, false),
                mappedRecord(at + static_cast<uint64_t>(insert) - 101,
                             true));
}

TEST(InsertEstimator, RecoversKnownDistributionWithinTolerance)
{
    // Simulator fragments with known (mean=300, sd=30): estimate from
    // the pair geometry the way the CLI bootstrap does.
    Rng rng(409);
    ReferenceParams params;
    params.length = 100000;
    const Sequence ref = generateReference(params, rng);
    ReadSimParams sp = ReadSimParams::illumina();
    sp.insert_mean = 300;
    sp.insert_sd = 30;
    ReadSimulator sim(ref, sp);
    InsertEstimator est;
    for (int i = 0; i < 600; ++i) {
        const SimulatedPair pair = sim.simulatePair(rng, i);
        feedInsert(est, pair.fragment_length,
                   pair.fragment_start + 1);
    }
    const InsertModel model = est.freeze();
    EXPECT_NEAR(model.mean, 300.0, 8.0);
    EXPECT_NEAR(model.sd, 30.0, 8.0);
    // The window follows the estimate, not the default 400/50 prior.
    EXPECT_LT(model.hi(), InsertModel{}.hi());
}

TEST(InsertEstimator, FreezeIsOrderInvariant)
{
    // Same observation multiset in three different arrival orders must
    // freeze to the bit-identical model: this is the property that makes
    // proper-pair verdicts independent of thread scheduling.
    std::vector<int64_t> inserts;
    Rng rng(419);
    for (int i = 0; i < 200; ++i)
        inserts.push_back(350 + static_cast<int64_t>(rng.pick(100)));
    InsertEstimator fwd, rev, shuf;
    for (const int64_t x : inserts)
        feedInsert(fwd, x);
    for (auto it = inserts.rbegin(); it != inserts.rend(); ++it)
        feedInsert(rev, *it);
    std::vector<int64_t> shuffled = inserts;
    for (size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.pick(i)]);
    for (const int64_t x : shuffled)
        feedInsert(shuf, x);
    const InsertModel a = fwd.freeze();
    const InsertModel b = rev.freeze();
    const InsertModel c = shuf.freeze();
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.sd, b.sd);
    EXPECT_EQ(a.mean, c.mean);
    EXPECT_EQ(a.sd, c.sd);
}

TEST(InsertEstimator, FallsBackBelowMinimumObservations)
{
    InsertModel fallback;
    fallback.mean = 123;
    fallback.sd = 7;
    InsertEstimator est(fallback);
    for (size_t i = 0; i + 1 < InsertEstimator::kMinObservations; ++i)
        feedInsert(est, 400);
    const InsertModel model = est.freeze();
    EXPECT_EQ(model.mean, 123.0);
    EXPECT_EQ(model.sd, 7.0);
}

TEST(InsertEstimator, IqrFencesRejectChimericOutliers)
{
    InsertEstimator est;
    Rng rng(421);
    for (int i = 0; i < 480; ++i)
        feedInsert(est, 380 + static_cast<int64_t>(rng.pick(41)));
    // 4% wild chimeric inserts: under kMaxInsert (so they are observed)
    // but far outside the IQR fences (so freeze must discard them).
    for (int i = 0; i < 20; ++i)
        feedInsert(est, 50000);
    EXPECT_EQ(est.observations(), 500u);
    const InsertModel model = est.freeze();
    EXPECT_NEAR(model.mean, 400.0, 5.0);
    EXPECT_LT(model.sd, 20.0);
}

TEST(InsertEstimator, ObservationGatesRejectUnusablePairs)
{
    InsertEstimator est;
    // Unmapped mate.
    SamRecord unmapped;
    unmapped.qname = "u";
    est.observe(mappedRecord(1000, false), unmapped);
    // Low MAPQ (repetitive placement).
    est.observe(mappedRecord(1000, false),
                mappedRecord(1300, true, InsertEstimator::kMinMapq - 1));
    // Same strand (not FR).
    est.observe(mappedRecord(1000, false), mappedRecord(1300, false));
    // Cross-contig.
    est.observe(mappedRecord(1000, false, 60, "chrA"),
                mappedRecord(1300, true, 60, "chrB"));
    // Reverse mate upstream of the forward one (RF, not FR).
    est.observe(mappedRecord(5000, false), mappedRecord(2000, true));
    // Chimeric beyond kMaxInsert.
    feedInsert(est, InsertEstimator::kMaxInsert + 101);
    EXPECT_EQ(est.observations(), 0u);
    // ... while a clean FR pair in-window is kept.
    feedInsert(est, 400);
    EXPECT_EQ(est.observations(), 1u);
}

// ======================================================================
// read_sim paired mode: SAM pairing conventions at the source.
// ======================================================================

TEST(PairSimulator, MatesShareSuffixFreeQnameAndFrOrientation)
{
    Rng rng(431);
    ReferenceParams params;
    params.length = 60000;
    const Sequence ref = generateReference(params, rng);
    ReadSimulator sim(ref, ReadSimParams::illumina());
    for (int i = 0; i < 50; ++i) {
        const SimulatedPair pair = sim.simulatePair(rng, i);
        // Identical QNAMEs with no /1 /2 mate suffix: mate identity
        // lives in the FLAG bits, not the name.
        EXPECT_EQ(pair.first.name, pair.second.name);
        EXPECT_EQ(pair.first.name.find('/'), std::string::npos);
        EXPECT_EQ(PairedReadSource::canonicalName(pair.first.name),
                  pair.first.name);
        // FR: forward first mate, reverse second mate.
        EXPECT_FALSE(pair.first.reverse);
        EXPECT_TRUE(pair.second.reverse);
    }
}

// ======================================================================
// CLI exit codes: flag misuse is a usage error (2); malformed paired
// input is a runtime error (1); never a crash.
// ======================================================================

class PairedCli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(433);
        ReferenceParams params;
        params.length = 8000;
        ref_ = generateReference(params, rng);
        fa_ = path("ref.fa");
        writeFastaFile(fa_, {{"ref", ref_}});
    }

    void
    TearDown() override
    {
        for (const std::string &p : paths_)
            std::remove(p.c_str());
    }

    /** Per-process scratch path (ctest may run the cases in parallel),
     *  removed when the case ends. */
    std::string
    path(const std::string &name)
    {
        paths_.push_back(::testing::TempDir() + "seedex_paired_" +
                         std::to_string(getpid()) + "_" + name);
        return paths_.back();
    }

    static void
    writeFile(const std::string &p, const std::string &text)
    {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << p;
        out << text;
        ASSERT_TRUE(out.flush().good()) << p;
    }

    static int
    cli(std::vector<std::string> args)
    {
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        return runCli(static_cast<int>(argv.size()), argv.data());
    }

    /** A mappable read: bases [at, at+len) of the reference. */
    std::string
    slice(size_t at, size_t len) const
    {
        std::string s;
        for (size_t i = 0; i < len; ++i)
            s += "ACGTN"[ref_[at + i]];
        return s;
    }

    Sequence ref_;
    std::string fa_;
    std::vector<std::string> paths_;
};

TEST_F(PairedCli, FlagMisuseIsUsageError)
{
    const std::string fq = path("any.fq");
    writeFile(fq, fastq({{"p1/1", "ACGT"}}));
    // -1 without -2 (and vice versa).
    EXPECT_EQ(cli({"seedex", "align", fa_, "-1", fq}), 2);
    EXPECT_EQ(cli({"seedex", "align", fa_, "-2", fq}), 2);
    // -1/-2 combined with --interleaved.
    EXPECT_EQ(
        cli({"seedex", "align", fa_, "-1", fq, "-2", fq, "--interleaved"}),
        2);
    // Stray reads operand in two-file mode.
    EXPECT_EQ(cli({"seedex", "align", fa_, fq, "-1", fq, "-2", fq}), 2);
    // Paired-only flags on single-end input.
    EXPECT_EQ(cli({"seedex", "align", fa_, fq, "--insert-mean=400"}), 2);
    EXPECT_EQ(cli({"seedex", "align", fa_, fq, "--no-rescue"}), 2);
    // Garbage and non-positive insert model values.
    EXPECT_EQ(cli({"seedex", "align", fa_, "-1", fq, "-2", fq,
                   "--insert-mean=abc"}),
              2);
    EXPECT_EQ(cli({"seedex", "align", fa_, "-1", fq, "-2", fq,
                   "--insert-sd=-3"}),
              2);
    // simulate: insert flags require --paired.
    EXPECT_EQ(cli({"seedex", "simulate", "-o", path("sim"),
                   "--insert-mean=300"}),
              2);
}

TEST_F(PairedCli, MalformedPairedInputExitsOne)
{
    const std::string good = slice(100, 101);
    const std::string r1 = path("r1.fq");
    const std::string r2 = path("r2.fq");
    // Mate-name mismatch.
    writeFile(r1, fastq({{"p1/1", good}, {"p2/1", good}}));
    writeFile(r2, fastq({{"p1/2", good}, {"pX/2", good}}));
    EXPECT_EQ(cli({"seedex", "align", fa_, "-1", r1, "-2", r2, "-o",
                   path("out.sam")}),
              1);
    // Unequal record counts (truncated second file).
    writeFile(r2, fastq({{"p1/2", good}}));
    EXPECT_EQ(cli({"seedex", "align", fa_, "-1", r1, "-2", r2, "-o",
                   path("out.sam")}),
              1);
    // Interleaved with an odd record count.
    const std::string inter = path("inter.fq");
    writeFile(inter, fastq({{"p1/1", good}, {"p1/2", good},
                            {"p2/1", good}}));
    EXPECT_EQ(cli({"seedex", "align", fa_, inter, "--interleaved", "-o",
                   path("out.sam")}),
              1);
}

TEST_F(PairedCli, WellFormedPairAlignsWithPairedFlagsSet)
{
    // One proper FR pair through the full CLI; the output records must
    // carry pair flags and reciprocal TLEN.
    const std::string r1 = path("ok1.fq");
    const std::string r2 = path("ok2.fq");
    std::string mate2 = slice(500, 101);
    { // reverse-complement mate 2 (FR orientation).
        std::string rc;
        for (auto it = mate2.rbegin(); it != mate2.rend(); ++it) {
            const size_t b = std::string("ACGTN").find(*it);
            rc += "TGCAN"[b == std::string::npos ? 4 : b];
        }
        mate2 = rc;
    }
    writeFile(r1, fastq({{"p1/1", slice(200, 101)}}));
    writeFile(r2, fastq({{"p1/2", mate2}}));
    const std::string out = path("ok.sam");
    ASSERT_EQ(cli({"seedex", "align", fa_, "-1", r1, "-2", r2, "-o", out,
                   "--insert-mean=400", "--insert-sd=50"}),
              0);
    std::ifstream in(out);
    std::string line;
    std::vector<std::string> body;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '@')
            body.push_back(line);
    ASSERT_EQ(body.size(), 2u);
    const int flag1 = std::stoi(body[0].substr(body[0].find('\t') + 1));
    const int flag2 = std::stoi(body[1].substr(body[1].find('\t') + 1));
    EXPECT_TRUE(flag1 & kSamFlagPaired);
    EXPECT_TRUE(flag1 & kSamFlagProperPair);
    EXPECT_TRUE(flag1 & kSamFlagFirstInPair);
    EXPECT_TRUE(flag2 & kSamFlagSecondInPair);
}

} // namespace
} // namespace seedex

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "apps/cli.h"
#include "fmindex/sdx.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ---- helpers ------------------------------------------------------------

/** Drive the CLI in-process with a literal argv. */
int
cli(std::initializer_list<std::string> args)
{
    std::vector<std::string> store(args);
    std::vector<char *> argv;
    for (std::string &s : store)
        argv.push_back(s.data());
    return runCli(static_cast<int>(argv.size()), argv.data());
}

/** Every path tempPath() handed out in this process. */
std::vector<std::string> &
tempPaths()
{
    static std::vector<std::string> paths;
    return paths;
}

/** Removes this process's scratch files once its tests are done. */
class TempCleanup : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        for (const std::string &p : tempPaths())
            std::remove(p.c_str());
    }
};

const ::testing::Environment *const kTempCleanup =
    ::testing::AddGlobalTestEnvironment(new TempCleanup);

/** Per-process scratch path: ctest runs every case as its own process,
 *  possibly in parallel, so a shared name would let one case read
 *  another's half-written file. */
std::string
tempPath(const std::string &name)
{
    tempPaths().push_back(::testing::TempDir() + "seedex_cli_" +
                          std::to_string(getpid()) + "_" + name);
    return tempPaths().back();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    for (;;) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** One alignment line parsed back out of a SAM file. */
struct ParsedSam
{
    std::string qname;
    int flag = 0;
    std::string rname;
    uint64_t pos = 0; ///< 1-based, as rendered
    int mapq = 0;
    std::string cigar;
    int64_t tlen = 0;
    int score = 0; ///< AS:i:
};

struct ParsedSamFile
{
    std::vector<std::string> header;
    std::vector<ParsedSam> records;
};

ParsedSamFile
parseSamFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    ParsedSamFile sam;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '@') {
            sam.header.push_back(line);
            continue;
        }
        const std::vector<std::string> f = splitTabs(line);
        EXPECT_GE(f.size(), 11u) << line;
        if (f.size() < 11)
            continue;
        ParsedSam rec;
        rec.qname = f[0];
        rec.flag = std::stoi(f[1]);
        rec.rname = f[2];
        rec.pos = std::stoull(f[3]);
        rec.mapq = std::stoi(f[4]);
        rec.cigar = f[5];
        rec.tlen = std::stoll(f[8]);
        for (size_t i = 11; i < f.size(); ++i)
            if (f[i].rfind("AS:i:", 0) == 0)
                rec.score = std::stoi(f[i].substr(5));
        sam.records.push_back(std::move(rec));
    }
    return sam;
}

/** A two-contig workload: FASTA + FASTQ on disk plus the in-memory
 *  concatenated reference / contig table / read list the in-process
 *  Aligner consumes. */
struct Workload
{
    std::string fasta_path;
    std::string fastq_path;
    Sequence reference;
    ContigTable contigs;
    std::vector<std::pair<std::string, Sequence>> reads;
};

Workload
buildWorkload(const std::string &tag, size_t n_reads)
{
    Workload w;
    Rng rng(42);
    ReferenceParams pa;
    pa.length = 30000;
    const Sequence chr_a = generateReference(pa, rng);
    pa.length = 20000;
    const Sequence chr_b = generateReference(pa, rng);

    std::vector<Base> all(chr_a.bases());
    all.insert(all.end(), chr_b.bases().begin(), chr_b.bases().end());
    w.reference = Sequence(std::move(all));
    w.contigs.add("chrA", chr_a.size());
    w.contigs.add("chrB", chr_b.size());

    // Full FASTA names carry descriptions; the CLI must key @SQ on the
    // first token only.
    w.fasta_path = tempPath(tag + ".fa");
    writeFastaFile(w.fasta_path, {{"chrA first contig", chr_a},
                                  {"chrB second contig", chr_b}});

    ReadSimulator sim(w.reference, ReadSimParams::illumina());
    std::ofstream fq(w.fastq_path = tempPath(tag + ".fq"));
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead read = sim.simulate(rng, i);
        fq << '@' << read.name << '\n'
           << read.seq.toString() << '\n'
           << "+\n"
           << std::string(read.seq.size(), 'I') << '\n';
        w.reads.emplace_back(std::move(read.name), std::move(read.seq));
    }
    return w;
}

// ---- .sdx container -----------------------------------------------------

TEST(Sdx, SaveLoadRoundTrip)
{
    Rng rng(7);
    ReferenceParams pa;
    pa.length = 5000;
    Sequence ref = generateReference(pa, rng);
    // Inject Ns: the container must preserve them even though the
    // FM-index itself collapses N to A during construction.
    std::vector<Base> bases = ref.bases();
    bases[100] = kBaseN;
    bases[4999] = kBaseN;
    ref = Sequence(std::move(bases));

    const FmdIndex index(ref);
    const std::string path = tempPath("roundtrip.sdx");
    saveSdx(path, {{"c1", 3000}, {"c2", 2000}}, ref, index);
    EXPECT_TRUE(isSdxFile(path));

    const SdxData data = loadSdx(path);
    EXPECT_EQ(data.version, kSdxVersion);
    ASSERT_EQ(data.contigs.size(), 2u);
    EXPECT_EQ(data.contigs[0].name, "c1");
    EXPECT_EQ(data.contigs[1].length, 2000u);
    ASSERT_EQ(data.reference.size(), ref.size());
    EXPECT_EQ(data.reference.bases(), ref.bases());
    EXPECT_EQ(data.reference[100], kBaseN);
    ASSERT_NE(data.index, nullptr);
    EXPECT_EQ(data.index->referenceLength(), ref.size());
}

/** Byte offsets of the sections of a saved `.sdx` file (layout in
 *  fmindex/sdx.h; the FM-index stream as FmdIndex::save writes it). */
struct SdxSections
{
    size_t header = 8;     ///< version, contig count, contigs, ref length
    size_t reference = 0;  ///< nibble-packed bases
    size_t fm = 0;         ///< FM-index stream: its magic
    size_t fm_arrays = 0;  ///< first array count, right after counts_
    std::vector<size_t> array_counts; ///< each FM array's count field
    std::vector<size_t> array_data;   ///< each FM array's first byte
    size_t footer = 0;     ///< CRC-32 footer
};

SdxSections
sdxSections(const std::string &blob)
{
    const auto u32 = [&](size_t at) {
        uint32_t v = 0;
        std::memcpy(&v, blob.data() + at, sizeof(v));
        return v;
    };
    const auto u64 = [&](size_t at) {
        uint64_t v = 0;
        std::memcpy(&v, blob.data() + at, sizeof(v));
        return v;
    };
    SdxSections s;
    size_t at = 16; // magic, version, contig count
    for (uint32_t i = 0, n = u32(12); i < n; ++i)
        at += 4 + u32(at) + 8;
    const uint64_t ref_len = u64(at);
    s.reference = at + 8;
    s.fm = s.reference + (ref_len + 1) / 2;
    // magic, version, layout, ref_len, text_len, primary, counts_[6].
    s.fm_arrays = s.fm + 8 + 4 + 1 + 8 + 8 + 8 + 6 * 8;
    at = s.fm_arrays;
    // sa_mark words, SA samples, packed blocks, exceptions.
    for (const size_t elem : {8, 4, 64, 8}) {
        s.array_counts.push_back(at);
        s.array_data.push_back(at + 8);
        at += 8 + u64(at) * elem;
    }
    s.footer = blob.size() - 4;
    return s;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The diagnostic loadSdx gives for `path`, or "" if it loads. */
std::string
loadError(const std::string &path)
{
    try {
        loadSdx(path);
    } catch (const SdxError &e) {
        return e.what();
    }
    return "";
}

TEST(Sdx, SingleFlippedByteRejected)
{
    Rng rng(8);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("corrupt.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);
    const std::string blob = slurp(path);
    const SdxSections sec = sdxSections(blob);

    // Bytes whose damage the loader parses before it can reach the
    // footer: every byte of the container header, of the FM-index
    // header (magic through counts_) and of each array's count field;
    // a stride through the reference and the arrays; the footer. The
    // magic is covered by the bad-magic case below.
    std::vector<size_t> targets;
    for (size_t at = sec.header; at < sec.reference; ++at)
        targets.push_back(at);
    for (size_t at = sec.fm; at < sec.fm_arrays; ++at)
        targets.push_back(at);
    for (const size_t count : sec.array_counts)
        for (size_t at = count; at < count + 8; ++at)
            targets.push_back(at);
    for (size_t at = sec.reference; at < sec.fm; at += 37)
        targets.push_back(at);
    for (size_t at = sec.array_data.front(); at < sec.footer; at += 37)
        targets.push_back(at);
    for (size_t at = sec.footer; at < blob.size(); ++at)
        targets.push_back(at);

    for (const size_t at : targets) {
        for (const int bit : {0, 7}) {
            std::string bad = blob;
            bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
            writeFile(path, bad);
            const std::string err = loadError(path);
            EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
                << "bit " << bit << " of byte " << at << ": "
                << (err.empty() ? "accepted" : err);
            EXPECT_NE(err.find("rebuild with `seedex index`"),
                      std::string::npos)
                << err;
        }
    }
}

TEST(Sdx, TruncationAndBadMagicRejected)
{
    Rng rng(9);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("trunc.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);
    const std::string blob = slurp(path);
    const SdxSections sec = sdxSections(blob);

    // Truncated inside the minimum size, at every section boundary, and
    // one byte short of the footer.
    std::vector<size_t> keeps = {0, 4, 8, 12, 16, 20, sec.reference - 8,
                                 sec.reference, sec.fm, sec.fm_arrays,
                                 sec.footer, blob.size() - 1};
    keeps.insert(keeps.end(), sec.array_counts.begin(),
                 sec.array_counts.end());
    keeps.insert(keeps.end(), sec.array_data.begin(),
                 sec.array_data.end());
    for (const size_t keep : keeps) {
        writeFile(path, blob.substr(0, keep));
        const std::string err = loadError(path);
        EXPECT_NE(err.find("rebuild with `seedex index`"),
                  std::string::npos)
            << "kept " << keep << ": " << (err.empty() ? "accepted" : err);
    }
    writeFile(path, blob.substr(0, 20));
    EXPECT_NE(loadError(path).find("truncated index file"),
              std::string::npos);

    // One appended byte shifts the footer.
    writeFile(path, blob + '\0');
    EXPECT_NE(loadError(path).find("checksum mismatch"), std::string::npos);

    writeFile(path, "not an index at all, definitely long enough to read");
    EXPECT_NE(loadError(path).find("bad magic"), std::string::npos);
    EXPECT_FALSE(isSdxFile(path));
}

// ---- CLI round trip -----------------------------------------------------

class CliRoundTrip : public ::testing::Test
{
  protected:
    static const Workload &
    workload()
    {
        static const Workload w = buildWorkload("rt", 300);
        return w;
    }

    static const std::string &
    sdxPath()
    {
        static const std::string path = [] {
            const std::string p = tempPath("rt.sdx");
            EXPECT_EQ(cli({"seedex", "index", workload().fasta_path, "-o",
                           p}),
                      0);
            return p;
        }();
        return path;
    }

    /** CLI align vs in-process Aligner: every record must agree on
     *  flag/rname/pos/cigar/score (sameAlignment plus coordinates). */
    void
    check(EngineKind engine, const std::string &engine_flag, int threads)
    {
        const Workload &w = workload();
        const std::string out = tempPath(
            "rt_" + engine_flag + "_t" + std::to_string(threads) + ".sam");
        std::vector<std::string> args = {"seedex",      "align",
                                         sdxPath(),     w.fastq_path,
                                         "-o",          out,
                                         "--engine=" + engine_flag,
                                         "--threads=" + std::to_string(
                                             threads)};
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        ASSERT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);

        PipelineConfig config;
        config.engine = engine;
        config.contigs = w.contigs;
        Aligner aligner(w.reference, config);
        const std::vector<SamRecord> expected =
            aligner.alignBatch(w.reads);

        const ParsedSamFile sam = parseSamFile(out);
        ASSERT_EQ(sam.records.size(), expected.size());
        ASSERT_GE(sam.header.size(), 4u); // @HD + 2x @SQ + @PG
        EXPECT_EQ(sam.header[0].rfind("@HD\tVN:1.6", 0), 0u);
        EXPECT_EQ(sam.header[1], "@SQ\tSN:chrA\tLN:30000");
        EXPECT_EQ(sam.header[2], "@SQ\tSN:chrB\tLN:20000");
        EXPECT_EQ(sam.header[3].rfind("@PG\tID:seedex\tPN:seedex", 0), 0u);

        size_t mapped = 0;
        for (size_t i = 0; i < expected.size(); ++i) {
            const ParsedSam &got = sam.records[i];
            const SamRecord &want = expected[i];
            EXPECT_EQ(got.qname, want.qname);
            EXPECT_EQ(got.flag, want.flag) << want.qname;
            EXPECT_EQ(got.rname, want.rname) << want.qname;
            const uint64_t want_pos = want.mapped() ? want.pos + 1 : 0;
            EXPECT_EQ(got.pos, want_pos) << want.qname;
            EXPECT_EQ(got.cigar,
                      want.mapped() ? want.cigar.toString() : "*")
                << want.qname;
            EXPECT_EQ(got.score, want.score) << want.qname;
            EXPECT_EQ(got.mapq, want.mapped() ? want.mapq : 0)
                << want.qname;
            mapped += want.mapped();
        }
        // The workload must actually exercise the mapped path.
        EXPECT_GT(mapped, expected.size() / 2);
    }
};

TEST_F(CliRoundTrip, FullBandSingleThread)
{
    check(EngineKind::FullBand, "fullband", 1);
}

TEST_F(CliRoundTrip, SeedExSingleThread)
{
    check(EngineKind::SeedEx, "seedex", 1);
}

TEST_F(CliRoundTrip, SeedExFourThreads)
{
    check(EngineKind::SeedEx, "seedex", 4);
}

TEST_F(CliRoundTrip, FullBandFourThreads)
{
    check(EngineKind::FullBand, "fullband", 4);
}

// ---- CLI failure modes --------------------------------------------------

TEST(CliErrors, CorruptSdxExitsNonZero)
{
    const Workload w = buildWorkload("err", 5);
    const std::string sdx = tempPath("err.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);

    std::fstream f(sdx,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(64);
    f.write(&byte, 1);
    f.close();

    const std::string out = tempPath("err.sam");
    EXPECT_EQ(cli({"seedex", "align", sdx, w.fastq_path, "-o", out}), 1);
}

TEST(CliErrors, NaiveLayoutSdxExitsOne)
{
    // An index that claims the deleted byte-per-symbol layout (layout
    // byte 0) under an intact checksum is refused with the rebuild
    // diagnostic, not misread as packed.
    const Workload w = buildWorkload("layout", 5);
    const std::string sdx = tempPath("layout.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);
    std::string blob = slurp(sdx);
    const SdxSections sec = sdxSections(blob);
    const size_t layout_at = sec.fm + 8 + 4; // after magic and version
    ASSERT_EQ(blob[layout_at], 1);
    blob[layout_at] = 0;
    const uint32_t crc = crc32(blob.data(), sec.footer);
    std::memcpy(blob.data() + sec.footer, &crc, sizeof(crc));
    writeFile(sdx, blob);

    std::ostringstream err;
    std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
    const int rc = cli({"seedex", "align", sdx, w.fastq_path, "-o",
                        tempPath("layout.sam")});
    std::cerr.rdbuf(saved);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.str().find("rebuild with `seedex index`"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(err.str().find("checksum mismatch"), std::string::npos)
        << err.str();
}

TEST(CliErrors, UsageErrorsExitTwo)
{
    EXPECT_EQ(cli({"seedex"}), 2);
    EXPECT_EQ(cli({"seedex", "frobnicate"}), 2);
    EXPECT_EQ(cli({"seedex", "index", "ref.fa"}), 2); // missing -o
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--bogus=1"}), 2);
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--threads=soon"}), 2);
    // Thread and queue shapes are checked before any file is opened.
    for (const char *bad : {"--threads=0", "--batch=0", "--batch=-1",
                            "--queue-cap=0", "--queue-cap=-1"})
        EXPECT_EQ(cli({"seedex", "align", "a", "b", "--threads=4", bad}), 2)
            << bad;
    // --threads is the only thread-shape flag and SEEDEX_KERNEL the only
    // tier switch: the removed split, shard and kernel options are
    // unknown options in any spelling.
    for (const char *removed :
         {"--seeding-threads=3", "--fpga-threads=1", "--queue-shards=1",
          "--kernel=scalar", "--seeding-threads=0", "--fpga-threads=-1",
          "--queue-shards=-1"}) {
        std::ostringstream err;
        std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
        const int rc =
            cli({"seedex", "align", "a", "b", "--threads=4", removed});
        std::cerr.rdbuf(saved);
        EXPECT_EQ(rc, 2) << removed;
        EXPECT_NE(err.str().find("unknown option"), std::string::npos)
            << removed << ": " << err.str();
    }
    // So are the band and the ledger stride, on either path. The removed
    // index options (--kmer, --fm-layout) are unknown options on both
    // commands, and --kernel on align.
    for (const char *threads : {"--threads=1", "--threads=4"})
        for (const char *bad :
             {"--band=0", "--band=-1", "--kmer=abc", "--kmer=-5",
              "--kmer=99", "--fm-layout=bogus", "--kernel=bogus",
              "--ledger-sample=0", "--ledger-sample=-3",
              "--ledger-sample=4294967296"})
            EXPECT_EQ(cli({"seedex", "align", "a", "b", threads, bad}), 2)
                << threads << " " << bad;
    for (const char *bad :
         {"--kmer=abc", "--kmer=-5", "--kmer=99", "--fm-layout=bogus"})
        EXPECT_EQ(cli({"seedex", "index", "ref.fa", "-o", "ref.sdx", bad}),
                  2)
            << bad;
    // Simulation counts are checked before any file is written.
    const std::string prefix = tempPath("badsim");
    tempPaths().push_back(prefix + ".fa");
    for (const char *bad :
         {"--reads=-1", "--reads=0", "--length=-5", "--length=0",
          "--read-length=-1", "--read-length=0", "--length=50"}) {
        EXPECT_EQ(cli({"seedex", "simulate", "-o", prefix, bad}), 2)
            << bad;
        EXPECT_FALSE(std::ifstream(prefix + ".fa").good()) << bad;
    }
    EXPECT_EQ(cli({"seedex", "--version"}), 0);
    EXPECT_EQ(cli({"seedex", "--help"}), 0);
}

TEST(CliErrors, MissingInputsExitOne)
{
    EXPECT_EQ(cli({"seedex", "index", tempPath("nope.fa"), "-o",
                   tempPath("nope.sdx")}),
              1);
    EXPECT_EQ(cli({"seedex", "align", tempPath("nope.fa"),
                   tempPath("nope.fq")}),
              1);
}

TEST(CliErrors, MalformedFastqExitsOneAfterPartialOutput)
{
    const Workload w = buildWorkload("badfq", 3);
    const std::string fq = tempPath("badfq_broken.fq");
    {
        std::ofstream out(fq);
        out << "@ok\nACGTACGTACGTACGTACGTACGT\n+\n"
            << std::string(24, 'I') << '\n'
            << "@broken\nACGT\n"; // truncated record
    }
    const std::string out = tempPath("badfq.sam");
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out}), 1);
    // Multi-threaded: the parse error must end the stream cleanly, not
    // crash a producer thread.
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out,
                   "--threads=4"}),
              1);
}

/** A stream buffer that refuses every write, like a full disk. */
class FullDiskBuf : public std::streambuf
{
  protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(CliErrors, FailedStdoutWriteExitsOne)
{
    // More reads than the --threads=4 window holds in flight (about
    // 1,100 at 3+1 threads and --batch=64): the first failed write must
    // stop the read feed, so the stage never sees the whole input.
    const size_t kReads = 8000;
    const Workload w = buildWorkload("fullout", kReads);
    FullDiskBuf full;
    obs::Counter &stage_reads =
        obs::MetricsRegistry::global().counter("stage.reads");
    for (const char *threads : {"--threads=1", "--threads=4"}) {
        const uint64_t before = stage_reads.value();
        std::streambuf *saved = std::cout.rdbuf(&full);
        const int rc =
            cli({"seedex", "align", w.fasta_path, w.fastq_path, threads});
        std::cout.rdbuf(saved);
        std::cout.clear();
        EXPECT_EQ(rc, 1) << threads;
        const uint64_t aligned = stage_reads.value() - before;
        EXPECT_GT(aligned, 0u) << threads;
        EXPECT_LT(aligned, kReads) << threads;
    }
}

TEST(CliErrors, UnwritableReportsExitOne)
{
    // A requested report that cannot be written fails the run, after
    // every report was attempted and the SAM was written in full.
    const Workload w = buildWorkload("unwritable", 20);
    const std::string dir = tempPath("no_such_dir");
    const std::string sam = tempPath("unwritable.sam");
    for (const char *flag :
         {"--metrics-out=", "--trace-out=", "--ledger-out="}) {
        std::ostringstream err;
        std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
        const int rc = cli({"seedex", "align", w.fasta_path, w.fastq_path,
                            "-o", sam, flag + dir + "/out"});
        std::cerr.rdbuf(saved);
        EXPECT_EQ(rc, 1) << flag;
        EXPECT_NE(err.str().find("FAILED to write"), std::string::npos)
            << flag << ": " << err.str();
        EXPECT_EQ(parseSamFile(sam).records.size(), w.reads.size())
            << flag;
    }
    std::ostringstream err;
    std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
    const int rc = cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o",
                        sam, "--threads=4", "--metrics-out=" + dir + "/m",
                        "--trace-out=" + dir + "/t",
                        "--ledger-out=" + dir + "/l"});
    std::cerr.rdbuf(saved);
    EXPECT_EQ(rc, 1);
    size_t failures = 0;
    for (size_t at = err.str().find("FAILED to write");
         at != std::string::npos;
         at = err.str().find("FAILED to write", at + 1))
        ++failures;
    EXPECT_EQ(failures, 3u) << err.str();
}

// ---- run settings are flags --------------------------------------------

/** RAII environment override (restores the prior value on exit so a
 *  failing test cannot poison later ones). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_.empty())
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), saved_.c_str(), 1);
    }

  private:
    std::string name_;
    std::string saved_;
};

/** Value of `"key":` in a flat JSON document, as raw text up to the
 *  next comma/brace (whitespace-tolerant; enough for report fields). */
std::string
jsonValue(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\"";
    size_t at = doc.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return {};
    at = doc.find(':', at + needle.size());
    EXPECT_NE(at, std::string::npos) << key;
    ++at;
    while (at < doc.size() && (doc[at] == ' ' || doc[at] == '\t'))
        ++at;
    size_t end = at;
    while (end < doc.size() && doc[end] != ',' && doc[end] != '}' &&
           doc[end] != '\n')
        ++end;
    std::string value = doc.substr(at, end - at);
    while (!value.empty() && (value.back() == ' ' || value.back() == '"'))
        value.pop_back();
    if (!value.empty() && value.front() == '"')
        value.erase(value.begin());
    return value;
}

class CliFlags : public ::testing::Test
{
  protected:
    /** Run an align with extra flags, return the metrics report text. */
    std::string
    alignReport(const std::string &tag,
                std::initializer_list<std::string> extra)
    {
        static const Workload w = buildWorkload("prec", 40);
        const std::string out = tempPath("prec_" + tag + ".sam");
        const std::string metrics =
            tempPath("prec_" + tag + "_metrics.json");
        std::vector<std::string> args = {"seedex", "align", w.fasta_path,
                                         w.fastq_path, "-o", out,
                                         "--metrics-out=" + metrics};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        EXPECT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);
        return slurp(metrics);
    }
};

TEST_F(CliFlags, EnvironmentDoesNotReachAlign)
{
    // The run's settings come from flags only: the variables that used
    // to mirror --band, --threads and --metrics-out change nothing.
    const std::string env_metrics = tempPath("env_metrics.json");
    ScopedEnv band("SEEDEX_BAND", "7");
    ScopedEnv threads("SEEDEX_THREADS", "4");
    ScopedEnv metrics("SEEDEX_METRICS_OUT", env_metrics.c_str());
    const std::string report = alignReport("env", {});
    EXPECT_EQ(jsonValue(report, "base_band"), "41");
    EXPECT_EQ(jsonValue(report, "threaded"), "false");
    EXPECT_EQ(jsonValue(report, "threads"), "1");
    const Workload w = buildWorkload("env_only", 10);
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o",
                   tempPath("env_only.sam")}),
              0);
    EXPECT_FALSE(std::ifstream(env_metrics).good())
        << "SEEDEX_METRICS_OUT reached seedex align";
    // The flag still sets the band.
    EXPECT_EQ(jsonValue(alignReport("band_flag", {"--band=21"}),
                        "base_band"),
              "21");
}

TEST(CliReport, LoadTimedInReportAndTrace)
{
    const Workload w = buildWorkload("load", 20);
    const std::string sdx = tempPath("load.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);
    // A .sdx load and a FASTA parse + index build are both timed.
    for (const std::string &ref : {sdx, w.fasta_path}) {
        const std::string metrics = tempPath("load_metrics.json");
        const std::string trace = tempPath("load_trace.json");
        ASSERT_EQ(cli({"seedex", "align", ref, w.fastq_path, "-o",
                       tempPath("load.sam"), "--metrics-out=" + metrics,
                       "--trace-out=" + trace}),
                  0);
        EXPECT_GT(std::stod(jsonValue(slurp(metrics), "load_seconds")), 0.0)
            << ref;
        // Whether the index got 2 MiB pages; 0 where THP is off.
        EXPECT_GE(std::stod(jsonValue(slurp(metrics), "huge_page_mib")),
                  0.0)
            << ref;
        EXPECT_NE(slurp(trace).find("\"index.load\""), std::string::npos)
            << ref;
    }
}

// ---- --engine at every thread count -------------------------------------

/** Registry counter value (the CLI runs in-process, so a run's counts
 *  are the difference across it). */
uint64_t
counterValue(const std::string &name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** The SAM file minus its @PG line (which carries the command line). */
std::string
samBody(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::string body;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("@PG", 0) != 0)
            body += line + '\n';
    return body;
}

void
writeFastq(const std::string &path,
           const std::vector<std::pair<std::string, Sequence>> &reads)
{
    std::ofstream fq(path);
    for (const auto &[name, seq] : reads)
        fq << '@' << name << '\n'
           << seq.toString() << "\n+\n"
           << std::string(seq.size(), 'I') << '\n';
}

/**
 * `--engine` names one engine at every thread count: the threaded
 * consumer extends through the run's own engine, and only
 * `--engine=device` runs the device timing model. The corpus is
 * perfbench's divergent profile (250 bp, 5 % substitutions, indels),
 * where narrow bands reject and the banded engine clips, plus pairs
 * with every 10th second mate shredded, so mate rescue runs in the
 * 1024-pair bootstrap slab and past it.
 */
class CliEngine : public ::testing::Test
{
  protected:
    struct Corpus
    {
        std::string sdx;
        std::string reads;
        std::string r1, r2;
    };

    static const Corpus &
    corpus()
    {
        static const Corpus c = [] {
            Corpus out;
            Rng rng(77);
            ReferenceParams rp;
            rp.length = 200000;
            const Sequence ref = generateReference(rp, rng);
            const std::string fa = tempPath("engine.fa");
            writeFastaFile(fa, {{"chr", ref}});
            out.sdx = tempPath("engine.sdx");
            EXPECT_EQ(cli({"seedex", "index", fa, "-o", out.sdx}), 0);

            ReadSimParams divergent;
            divergent.read_length = 250;
            divergent.base_error_rate = 0.04;
            divergent.snp_rate = 0.01;
            divergent.small_indel_rate = 0.005;
            divergent.long_indel_read_fraction = 0.05;
            const ReadSimulator single(ref, divergent);
            std::vector<std::pair<std::string, Sequence>> reads;
            for (size_t i = 0; i < 400; ++i) {
                SimulatedRead r = single.simulate(rng, i);
                reads.emplace_back(std::move(r.name), std::move(r.seq));
            }
            writeFastq(out.reads = tempPath("engine.fq"), reads);

            const ReadSimulator pairs(ref, ReadSimParams::illumina());
            std::vector<std::pair<std::string, Sequence>> m1, m2;
            for (size_t i = 0; i < 1400; ++i) {
                SimulatedPair p = pairs.simulatePair(rng, i);
                if (i % 10 == 3)
                    for (size_t b = 5; b < p.second.seq.size(); b += 12)
                        p.second.seq[b] =
                            static_cast<Base>((p.second.seq[b] + 1) % 4);
                m1.emplace_back(std::move(p.first.name),
                                std::move(p.first.seq));
                m2.emplace_back(std::move(p.second.name),
                                std::move(p.second.seq));
            }
            writeFastq(out.r1 = tempPath("engine_1.fq"), m1);
            writeFastq(out.r2 = tempPath("engine_2.fq"), m2);
            return out;
        }();
        return c;
    }

    /** One `seedex align` run; what it left behind. */
    struct Run
    {
        int rc = -1;
        std::string sam;
        std::string err;
        std::string ledger;
        std::string report;
        /** How far each named counter moved during the run. */
        std::map<std::string, uint64_t> moved;
    };

    static Run
    align(const std::string &tag, bool paired,
          const std::vector<std::string> &flags,
          const std::vector<std::string> &counters = {})
    {
        const Corpus &c = corpus();
        const std::string out = tempPath(tag + ".sam");
        const std::string ledger = tempPath(tag + ".jsonl");
        const std::string report = tempPath(tag + ".json");
        std::vector<std::string> args = {"seedex", "align", c.sdx};
        if (paired)
            args.insert(args.end(), {"-1", c.r1, "-2", c.r2});
        else
            args.push_back(c.reads);
        args.insert(args.end(), {"-o", out, "--ledger-out=" + ledger,
                                 "--metrics-out=" + report});
        args.insert(args.end(), flags.begin(), flags.end());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());

        std::map<std::string, uint64_t> before;
        for (const std::string &n : counters)
            before[n] = counterValue(n);
        std::ostringstream err;
        std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
        Run run;
        run.rc = runCli(static_cast<int>(argv.size()), argv.data());
        std::cerr.rdbuf(saved);
        run.err = err.str();
        for (const std::string &n : counters)
            run.moved[n] = counterValue(n) - before[n];
        if (run.rc == 0) {
            run.sam = samBody(out);
            run.ledger = slurp(ledger);
            run.report = slurp(report);
        }
        return run;
    }
};

TEST_F(CliEngine, ThreadedFullBandRunsNoSeedExOrDevice)
{
    const std::vector<std::string> counters = {"filter.verdict.total",
                                               "device.jobs"};
    const Run fullband = align("fb_t4", false,
                               {"--engine=fullband", "--threads=4"},
                               counters);
    ASSERT_EQ(fullband.rc, 0) << fullband.err;
    EXPECT_EQ(jsonValue(fullband.report, "engine"), "fullband");
    EXPECT_EQ(jsonValue(fullband.report, "threaded"), "true");
    EXPECT_EQ(fullband.moved.at("filter.verdict.total"), 0u);
    EXPECT_EQ(fullband.moved.at("device.jobs"), 0u);

    // The default engine runs its SeedEx verdicts on the threads, but
    // not the device model; only --engine=device runs that.
    const Run seedex = align("sx_t4", false, {"--threads=4"}, counters);
    ASSERT_EQ(seedex.rc, 0) << seedex.err;
    EXPECT_GT(seedex.moved.at("filter.verdict.total"), 0u);
    EXPECT_EQ(seedex.moved.at("device.jobs"), 0u);
    const Run device = align("dev_t4", false,
                             {"--engine=device", "--threads=4"}, counters);
    ASSERT_EQ(device.rc, 0) << device.err;
    EXPECT_EQ(device.moved.at("device.jobs"),
              device.moved.at("filter.verdict.total"));
    EXPECT_GT(device.moved.at("device.jobs"), 0u);

    EXPECT_EQ(fullband.sam, seedex.sam);
    EXPECT_EQ(fullband.sam, device.sam);
}

TEST_F(CliEngine, DeviceRunsAtEveryThreadCount)
{
    // The device model runs on the stage's slabs, which are the same
    // --batch slabs inline and on the threads: --threads=1 gives the
    // --threads=4 SAM and modeled counters, single-end and paired (where
    // the bootstrap slab goes through the model too).
    const std::vector<std::string> counters = {
        "device.batches",          "device.jobs",
        "device.rerun.checks",     "device.rerun.exception",
        "device.cycles.critical",  "device.cycles.busy",
        "device.cycles.edit",      "filter.verdict.total",
        "filter.verdict.pass_s2",  "filter.verdict.pass_checks",
        "filter.verdict.fail_s1",  "filter.verdict.fail_e_score",
        "filter.verdict.fail_edit_check",
        "filter.verdict.fail_gscore_guard", "filter.edit_machine.runs"};
    for (const bool paired : {false, true}) {
        SCOPED_TRACE(paired ? "paired" : "single-end");
        const std::string tag = paired ? "dev_pe" : "dev_se";
        const Run t1 = align(tag + "_t1", paired,
                             {"--engine=device", "--threads=1"}, counters);
        const Run t4 = align(tag + "_t4", paired,
                             {"--engine=device", "--threads=4"}, counters);
        ASSERT_EQ(t1.rc, 0) << t1.err;
        ASSERT_EQ(t4.rc, 0) << t4.err;
        EXPECT_EQ(jsonValue(t1.report, "threaded"), "false");
        EXPECT_EQ(t1.sam, t4.sam);
        for (const std::string &n : counters)
            EXPECT_EQ(t1.moved.at(n), t4.moved.at(n)) << n;
        EXPECT_GT(t1.moved.at("device.jobs"), 0u);
    }

    EXPECT_EQ(cli({"seedex", "align", corpus().sdx, corpus().reads,
                   "--engine=bogus", "--threads=4"}),
              2);
    std::ostringstream help;
    std::streambuf *saved = std::cout.rdbuf(help.rdbuf());
    EXPECT_EQ(cli({"seedex", "--help"}), 0);
    std::cout.rdbuf(saved);
    EXPECT_NE(help.str().find("fullband | banded | seedex | device"),
              std::string::npos)
        << help.str();
}

TEST_F(CliEngine, ThreadedBandedMatchesSingleThread)
{
    // Band 1 makes the unguaranteed engine clip, so its output differs
    // from the full band and the comparison below means something.
    for (const bool paired : {false, true}) {
        SCOPED_TRACE(paired ? "paired" : "single-end");
        const std::string tag = paired ? "bd_pe" : "bd_se";
        const Run t1 = align(tag + "_t1", paired,
                             {"--engine=banded", "--band=1", "--threads=1"});
        const Run t4 = align(tag + "_t4", paired,
                             {"--engine=banded", "--band=1", "--threads=4"});
        ASSERT_EQ(t1.rc, 0) << t1.err;
        ASSERT_EQ(t4.rc, 0) << t4.err;
        EXPECT_EQ(jsonValue(t4.report, "threaded"), "true");
        EXPECT_EQ(t4.err.find("ignoring --threads"), std::string::npos)
            << t4.err;
        EXPECT_NE(t4.err.find("fpga threads"), std::string::npos) << t4.err;
        EXPECT_EQ(t1.sam, t4.sam);
        const Run fullband = align(tag + "_fb", paired,
                                   {"--engine=fullband", "--threads=1"});
        ASSERT_EQ(fullband.rc, 0) << fullband.err;
        EXPECT_NE(t1.sam, fullband.sam) << "band 1 never clipped";
    }
}

TEST_F(CliEngine, ThreadedPairedFullBandCountersMatchSingleThread)
{
    const std::vector<std::string> counters = {
        "seedex.paired.pairs",           "seedex.paired.proper",
        "seedex.paired.rescues",         "seedex.paired.rescue_attempts",
        "seedex.paired.rescue_extensions", "seedex.paired.rescue_passes"};
    const Run t1 = align("pfb_t1", true,
                         {"--engine=fullband", "--threads=1"}, counters);
    const Run t4 = align("pfb_t4", true,
                         {"--engine=fullband", "--threads=4"}, counters);
    ASSERT_EQ(t1.rc, 0) << t1.err;
    ASSERT_EQ(t4.rc, 0) << t4.err;
    EXPECT_EQ(t1.sam, t4.sam);
    for (const std::string &n : counters)
        EXPECT_EQ(t1.moved.at(n), t4.moved.at(n)) << n;
    // The full band runs no SeedEx check, in rescue either.
    EXPECT_EQ(t4.moved.at("seedex.paired.rescue_passes"), 0u);
    EXPECT_GT(t4.moved.at("seedex.paired.rescue_extensions"), 0u);
}

TEST_F(CliEngine, ThreadedLedgerMatchesSingleThread)
{
    for (const bool paired : {false, true}) {
        for (const char *engine :
             {"seedex", "fullband", "banded", "device"}) {
            SCOPED_TRACE(std::string(engine) +
                         (paired ? " paired" : " single-end"));
            const std::string flag = std::string("--engine=") + engine;
            const std::string tag =
                std::string(paired ? "led_pe_" : "led_") + engine;
            const Run t1 = align(tag + "_t1", paired,
                                 {flag, "--band=11", "--threads=1"});
            const Run t4 = align(tag + "_t4", paired,
                                 {flag, "--band=11", "--threads=4"});
            ASSERT_EQ(t1.rc, 0) << t1.err;
            ASSERT_EQ(t4.rc, 0) << t4.err;
            ASSERT_FALSE(t1.ledger.empty());
            EXPECT_EQ(t1.ledger, t4.ledger);
            // The full band reports band -1, the narrow engines their
            // band; paired records, the bootstrap slab's included, carry
            // their pair fields.
            const std::string band =
                std::string(engine) == "fullband" ? "-1" : "11";
            EXPECT_EQ(jsonValue(t4.ledger, "band"), band);
            EXPECT_EQ(jsonValue(t1.ledger, "paired"),
                      paired ? "true" : "false");
        }
    }
}

TEST_F(CliEngine, ThreadedPairedLedgerNumbersEachReadOnce)
{
    // The bootstrap slab records reads 0..2047; the threaded portion
    // must go on from there. Were both to count from 0, the ledger's
    // sort would order the tied records differently run to run.
    const Run a = align("led_pairs_a", true, {"--threads=4"});
    const Run b = align("led_pairs_b", true, {"--threads=4"});
    ASSERT_EQ(a.rc, 0) << a.err;
    ASSERT_EQ(b.rc, 0) << b.err;
    EXPECT_EQ(a.ledger, b.ledger);
    std::istringstream lines(a.ledger);
    uint64_t want = 0;
    for (std::string line; std::getline(lines, line); ++want)
        ASSERT_EQ(jsonValue(line, "read"), std::to_string(want));
    EXPECT_EQ(want, 2 * 1400u); // every read of the 1,400 pairs, once
}

// ---- unmapped-record SAM fields ----------------------------------------

TEST(SamSpec, UnmappedRecordFields)
{
    const SamRecord rec =
        unmappedRecord("lost", Sequence::fromString("ACGTACGT"));
    const std::vector<std::string> f = splitTabs(rec.render());
    ASSERT_GE(f.size(), 11u);
    EXPECT_EQ(f[1], "4");  // FLAG: unmapped
    EXPECT_EQ(f[2], "*");  // RNAME
    EXPECT_EQ(f[3], "0");  // POS: 0, not 1
    EXPECT_EQ(f[4], "0");  // MAPQ
    EXPECT_EQ(f[5], "*");  // CIGAR
    EXPECT_EQ(f[6], "*");  // RNEXT
    EXPECT_EQ(f[7], "0");  // PNEXT
    EXPECT_EQ(f[8], "0");  // TLEN
}

// ---- single-end QNAME ---------------------------------------------------

TEST(SamSpec, SingleEndQnameIsFirstHeaderWord)
{
    const Workload w = buildWorkload("qname", 300);
    const std::string sdx = tempPath("qname.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);
    // Illumina-style descriptions, `samtools fastq -T` tags after a tab,
    // and a /1 suffix, which single-end input keeps (as BWA does).
    const char *const kTails[] = {" extra description 1:N:0",
                                  "\tRG:Z:x\tBC:Z:ACGT", " 2:N:0", ""};
    const std::string fastq = tempPath("qname.fq");
    std::vector<std::string> want;
    {
        std::ofstream fq(fastq);
        for (size_t i = 0; i < w.reads.size(); ++i) {
            const auto &[name, seq] = w.reads[i];
            const std::string word = i % 4 == 2 ? name + "/1" : name;
            fq << '@' << word << kTails[i % 4] << '\n'
               << seq.toString() << "\n+\n"
               << std::string(seq.size(), 'I') << '\n';
            want.push_back(word);
        }
    }
    std::string bodies[2];
    for (int t = 0; t < 2; ++t) {
        const std::string threads = t == 0 ? "1" : "4";
        const std::string out = tempPath("qname_t" + threads + ".sam");
        ASSERT_EQ(cli({"seedex", "align", sdx, fastq, "-o", out,
                       "--threads=" + threads}),
                  0);
        std::istringstream sam(slurp(out));
        size_t n = 0;
        for (std::string line; std::getline(sam, line);) {
            if (line.rfind("@PG", 0) == 0)
                continue;
            bodies[t] += line + '\n';
            if (line[0] == '@')
                continue;
            const std::vector<std::string> f = splitTabs(line);
            EXPECT_GE(f.size(), 11u) << line;
            ASSERT_LT(n, want.size());
            EXPECT_EQ(f[0], want[n]) << "--threads=" << threads;
            ++n;
        }
        EXPECT_EQ(n, want.size()) << "--threads=" << threads;
    }
    EXPECT_EQ(bodies[0], bodies[1]);
}

// ---- streaming readers --------------------------------------------------

TEST(FastxStream, FastqCrlfAndBlankSeparators)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n"
                          "\n\n"
                          "@r2 with description\nTTGG\n+r2\nJJJJ\n");
    FastqReader reader(in);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r1");
    EXPECT_EQ(rec.seq.toString(), "ACGT");
    EXPECT_EQ(rec.qual, "IIII");
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2 with description");
    EXPECT_EQ(rec.seq.toString(), "TTGG");
    EXPECT_FALSE(reader.next(rec));
    EXPECT_EQ(reader.recordsRead(), 2u);
}

TEST(FastxStream, FastqBlankLineInsideRecordDiagnosed)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n\nIIII\n");
    FastqReader reader(in, "reads.fq");
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    try {
        reader.next(rec);
        FAIL() << "blank line inside record 2 was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("reads.fq"), std::string::npos) << msg;
        EXPECT_NE(msg.find("FASTQ record 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("blank line"), std::string::npos) << msg;
    }
}

TEST(FastxStream, FastqTruncatedAndLengthMismatchDiagnosed)
{
    {
        std::istringstream in("@r1\nACGT\n+\n");
        FastqReader reader(in);
        FastqRecord rec;
        EXPECT_THROW(reader.next(rec), std::runtime_error);
    }
    {
        std::istringstream in("@r1\nACGT\n+\nIII\n");
        FastqReader reader(in);
        FastqRecord rec;
        try {
            reader.next(rec);
            FAIL() << "quality length mismatch accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("quality length"),
                      std::string::npos);
        }
    }
}

TEST(FastxStream, FastaRejectsEmptyAndDuplicateNames)
{
    {
        std::istringstream in(">\nACGT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        try {
            reader.next(rec);
            FAIL() << "empty contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 1"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("empty contig name"), std::string::npos)
                << msg;
        }
    }
    {
        std::istringstream in(">chr1\nACGT\n>chr1\nTTTT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        ASSERT_TRUE(reader.next(rec));
        try {
            reader.next(rec);
            FAIL() << "duplicate contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 2"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("duplicate contig name"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(FastxStream, OffsetsStay64BitPastFourGiB)
{
    // A reader resumed at byte 5 GiB: every offset it reports must keep
    // the high bits (the arithmetic is uint64 throughout; a 32-bit
    // truncation would wrap these to small numbers).
    const uint64_t five_gib = 5ull * 1024 * 1024 * 1024;
    const std::string payload = "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n";
    std::istringstream in(payload);
    FastqReader reader(in, "big.fq", five_gib);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2");
    EXPECT_EQ(reader.byteOffset(), five_gib + payload.size());
    EXPECT_GT(reader.byteOffset(), uint64_t{1} << 32);

    std::istringstream in2(payload);
    LineScanner scanner(in2, "big.fq", five_gib);
    std::string line;
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib);
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib + 4);
    EXPECT_EQ(scanner.lineNumber(), 2u);
}

} // namespace
} // namespace seedex

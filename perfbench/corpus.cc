// Deterministic corpus generator for the end-to-end benchmark.
//
//   perfbench_corpus genome --length=N --seed=S -o ref.fa
//   perfbench_corpus reads --ref=ref.fa --profile=short|divergent|pairs
//                    --count=N --seed=S -o PREFIX
//
// `reads` writes PREFIX.fq (single-end) or PREFIX_1.fq + PREFIX_2.fq
// (pairs, --count counts pairs) and PREFIX.truth.tsv with one line per
// read: name, mate (0 single-end, 1/2 paired), 0-based origin, strand.
// The aligner only ever sees the FASTQ files; the truth sidecar is for
// the benchmark's placement check.

#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace {

using namespace seedex;

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            flags["-o"] = argv[++i];
            continue;
        }
        const size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            throw std::runtime_error("bad argument '" + arg + "'");
        flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
    return flags;
}

const std::string &
need(const std::map<std::string, std::string> &flags, const char *name)
{
    const auto it = flags.find(name);
    if (it == flags.end())
        throw std::runtime_error(std::string("missing ") + name);
    return it->second;
}

uint64_t
needU64(const std::map<std::string, std::string> &flags, const char *name)
{
    return std::stoull(need(flags, name));
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw std::runtime_error(path + ": cannot open for writing");
    return f;
}

void
finish(std::ofstream &f, const std::string &path)
{
    if (!f.flush())
        throw std::runtime_error(path + ": write failed");
}

std::string
fastqRecord(const SimulatedRead &read, const std::string &bases)
{
    return '@' + read.name + '\n' + bases + "\n+\n" +
        std::string(bases.size(), 'I') + '\n';
}

std::string
truthLine(const SimulatedRead &read, int mate)
{
    return read.name + '\t' + std::to_string(mate) + '\t' +
        std::to_string(read.true_pos) + '\t' + (read.reverse ? '-' : '+') +
        '\n';
}

/** Every 10th R2 loses every 12th base to a substitution, so the mate
 *  cannot seed-map and pair finalization must rescue it from the
 *  anchor's insert window. */
std::string
shred(std::string bases)
{
    for (size_t i = 5; i < bases.size(); i += 12) {
        switch (bases[i]) {
          case 'A': bases[i] = 'C'; break;
          case 'C': bases[i] = 'G'; break;
          case 'G': bases[i] = 'T'; break;
          default: bases[i] = 'A'; break;
        }
    }
    return bases;
}

ReadSimParams
profileParams(const std::string &profile)
{
    if (profile == "short" || profile == "pairs")
        return ReadSimParams::illumina();
    if (profile == "divergent") {
        ReadSimParams p;
        p.read_length = 250;
        p.base_error_rate = 0.04;
        p.snp_rate = 0.01;
        p.small_indel_rate = 0.005;
        p.long_indel_read_fraction = 0.05;
        return p;
    }
    throw std::runtime_error("unknown profile '" + profile + "'");
}

int
cmdGenome(const std::map<std::string, std::string> &flags)
{
    Rng rng(needU64(flags, "--seed"));
    ReferenceParams params;
    params.length = needU64(flags, "--length");
    writeFastaFile(need(flags, "-o"),
                   {{"sim", generateReference(params, rng)}});
    return 0;
}

int
cmdReads(const std::map<std::string, std::string> &flags)
{
    FastaReader reader(need(flags, "--ref"));
    FastaRecord ref;
    if (!reader.next(ref))
        throw std::runtime_error("reference has no sequence");
    const std::string profile = need(flags, "--profile");
    const uint64_t count = needU64(flags, "--count");
    const std::string prefix = need(flags, "-o");
    Rng rng(needU64(flags, "--seed"));
    const ReadSimulator sim(ref.seq, profileParams(profile));

    std::ofstream truth = openOut(prefix + ".truth.tsv");
    if (profile == "pairs") {
        std::ofstream fq1 = openOut(prefix + "_1.fq");
        std::ofstream fq2 = openOut(prefix + "_2.fq");
        for (uint64_t i = 0; i < count; ++i) {
            const SimulatedPair pair = sim.simulatePair(rng, i);
            const std::string r2 = pair.second.seq.toString();
            fq1 << fastqRecord(pair.first, pair.first.seq.toString());
            fq2 << fastqRecord(pair.second, i % 10 == 0 ? shred(r2) : r2);
            truth << truthLine(pair.first, 1) << truthLine(pair.second, 2);
        }
        finish(fq1, prefix + "_1.fq");
        finish(fq2, prefix + "_2.fq");
    } else {
        std::ofstream fq = openOut(prefix + ".fq");
        for (uint64_t i = 0; i < count; ++i) {
            const SimulatedRead read = sim.simulate(rng, i);
            fq << fastqRecord(read, read.seq.toString());
            truth << truthLine(read, 0);
        }
        finish(fq, prefix + ".fq");
    }
    finish(truth, prefix + ".truth.tsv");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string cmd = argc > 1 ? argv[1] : "";
        const auto flags = parseFlags(argc, argv);
        if (cmd == "genome")
            return cmdGenome(flags);
        if (cmd == "reads")
            return cmdReads(flags);
        std::cerr << "usage: perfbench_corpus genome|reads [options]\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_corpus: " << e.what() << "\n";
        return 1;
    }
}

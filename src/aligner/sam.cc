#include "aligner/sam.h"

#include <algorithm>
#include <stdexcept>

#include "align/dp.h"
#include "util/decimal.h"
#include "util/table.h"

namespace seedex {

// ---------------------------------------------------------- ContigTable

void
ContigTable::add(std::string name, uint64_t length)
{
    if (name.empty())
        throw std::runtime_error("contig table: empty contig name");
    for (const SamContig &c : contigs_) {
        if (c.name == name)
            throw std::runtime_error("contig table: duplicate contig \"" +
                                     name + "\"");
    }
    offsets_.push_back(totalLength());
    contigs_.push_back({std::move(name), length});
}

uint64_t
ContigTable::totalLength() const
{
    return contigs_.empty()
        ? 0
        : offsets_.back() + contigs_.back().length;
}

size_t
ContigTable::indexOf(uint64_t global_pos) const
{
    if (contigs_.size() <= 1)
        return 0;
    // First contig whose start is past the position, minus one.
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(),
                                     global_pos);
    return static_cast<size_t>(it - offsets_.begin()) - 1;
}

const std::string &
ContigTable::name(size_t i) const
{
    static const std::string kDefault = "ref";
    return contigs_.empty() ? kDefault : contigs_[i].name;
}

uint64_t
ContigTable::toLocal(size_t i, uint64_t global_pos) const
{
    return contigs_.empty() ? global_pos : global_pos - offsets_[i];
}

std::string
renderSamHeader(const ContigTable &contigs, uint64_t reference_length,
                const std::string &program_cl)
{
    std::string header = "@HD\tVN:1.6\tSO:unsorted\n";
    if (contigs.empty()) {
        header += strprintf(
            "@SQ\tSN:ref\tLN:%llu\n",
            static_cast<unsigned long long>(reference_length));
    } else {
        for (size_t i = 0; i < contigs.size(); ++i)
            header += strprintf(
                "@SQ\tSN:%s\tLN:%llu\n", contigs[i].name.c_str(),
                static_cast<unsigned long long>(contigs[i].length));
    }
    header += strprintf("@PG\tID:seedex\tPN:seedex\tVN:%s", kSeedexVersion);
    if (!program_cl.empty())
        header += "\tCL:" + program_cl;
    header += '\n';
    return header;
}

// ------------------------------------------------------------ SamRecord

std::string
SamRecord::render() const
{
    // SAM spec (v1.6 §1.4): a record without a coordinate carries POS 0,
    // and a flag-0x4 record carries MAPQ 0 and a '*' CIGAR; TLEN is only
    // meaningful for placed paired records. A placed unmapped record
    // (mate-position convention) still renders its 1-based POS.
    const bool unmapped = (flag & kSamFlagUnmapped) != 0;
    const bool placed = rname != "*";
    // One buffer, sized up front: the text columns plus room for seven
    // numbers, a short CIGAR and the fixed tags.
    std::string line;
    line.reserve(qname.size() + rname.size() + rnext.size() + seq.size() +
                 128);
    line += qname;
    line += '\t';
    appendDecimal(line, flag);
    line += '\t';
    line += rname;
    line += '\t';
    appendDecimal(line, placed ? pos + 1 : 0);
    line += '\t';
    appendDecimal(line, unmapped ? 0 : mapq);
    line += '\t';
    if (unmapped)
        line += '*';
    else
        cigar.appendTo(line);
    line += '\t';
    line += rnext;
    line += '\t';
    appendDecimal(line, rnext == "*" ? 0 : pnext + 1);
    line += '\t';
    appendDecimal(line, unmapped ? 0 : tlen);
    line += '\t';
    line += seq;
    line += "\t*\tAS:i:";
    appendDecimal(line, score);
    line += "\tXS:i:";
    appendDecimal(line, sub_score);
    return line;
}

int
approxMapq(int best, int second_best, const Scoring &scoring)
{
    if (best <= 0)
        return 0;
    const int floor = scoring.match * 10;
    const int sub = std::max(second_best, floor);
    if (sub >= best)
        return 0;
    // BWA's mem_approx_mapq_se shape: proportional to the score gap,
    // scaled so a runner-up at the noise floor means full confidence
    // (60) while a near-tie (best=100, sub=99) rounds to ~0 — unlike
    // the old "+ 10" term, which floored every non-tie at MAPQ 11.
    const double frac = static_cast<double>(best - sub) /
        static_cast<double>(best - floor);
    return std::min(60, static_cast<int>(60.0 * frac + 0.4999));
}

SamRecord
buildSamRecord(const std::string &name, const Sequence &read,
               const ChainAlignment &best, int second_best,
               const Sequence &reference, const Scoring &scoring,
               const ContigTable &contigs)
{
    SamRecord rec;
    rec.qname = name;
    const size_t contig = contigs.indexOf(best.rbeg);
    rec.rname = contigs.name(contig);
    rec.pos = contigs.toLocal(contig, best.rbeg);
    rec.flag = best.reverse ? kSamFlagReverse : 0;
    rec.score = best.score;
    rec.sub_score = second_best;
    rec.mapq = approxMapq(best.score, second_best, scoring);

    const Sequence oriented =
        best.reverse ? read.reverseComplement() : read;
    rec.seq = oriented.toString();

    // Host traceback between the extension endpoints. When neither
    // extension ever left the main diagonal (max_off == 0) the optimal
    // path is provably gap-free and the trace is a straight match run --
    // the overwhelmingly common case on clean reads.
    Cigar cigar;
    cigar.push('S', best.qbeg);
    const int qspan = best.qend - best.qbeg;
    const int tspan = static_cast<int>(best.rend - best.rbeg);
    if (best.max_off == 0 && qspan == tspan) {
        cigar.push('M', qspan);
    } else {
        const Sequence q = oriented.slice(static_cast<size_t>(best.qbeg),
                                          static_cast<size_t>(qspan));
        const Sequence t =
            reference.slice(best.rbeg, static_cast<size_t>(tspan));
        const int band = std::abs(qspan - tspan) + 32;
        const Alignment aln = globalAlignBanded(q, t, scoring, band);
        for (const CigarOp &op : aln.cigar.ops())
            cigar.push(op.op, op.len);
    }
    cigar.push('S', static_cast<int>(read.size()) - best.qend);
    rec.cigar = cigar;
    return rec;
}

SamRecord
unmappedRecord(const std::string &name, const Sequence &read)
{
    SamRecord rec;
    rec.qname = name;
    rec.flag = kSamFlagUnmapped;
    rec.seq = read.toString();
    return rec;
}

} // namespace seedex

#ifndef SEEDEX_ALIGN_CIGAR_H
#define SEEDEX_ALIGN_CIGAR_H

#include <cstdint>
#include <string>
#include <vector>

#include "align/scoring.h"
#include "genome/sequence.h"

namespace seedex {

/** One CIGAR operation. */
struct CigarOp
{
    /** 'M' (match/mismatch), 'I' (insertion to ref), 'D' (deletion from
     *  ref), 'S' (soft clip). */
    char op = 'M';
    int len = 0;

    bool operator==(const CigarOp &) const = default;
};

/**
 * A CIGAR string: the edit trace the aligner reports per read (SAM
 * column 6). Produced by host-side traceback (§II: traceback happens once
 * per read on the host, not per extension on the accelerator).
 */
class Cigar
{
  public:
    Cigar() = default;
    explicit Cigar(std::vector<CigarOp> ops) : ops_(std::move(ops)) {}

    /** Append an op, merging with the previous one when equal. */
    void
    push(char op, int len)
    {
        if (len <= 0)
            return;
        if (!ops_.empty() && ops_.back().op == op)
            ops_.back().len += len;
        else
            ops_.push_back({op, len});
    }

    const std::vector<CigarOp> &ops() const { return ops_; }
    bool empty() const { return ops_.empty(); }

    /** Render in SAM notation, e.g. "5S96M" ("*" when empty). */
    std::string toString() const;

    /** Append the toString() text to `out` (the SAM renderer writes the
     *  CIGAR column in place this way). */
    void appendTo(std::string &out) const;

    /** Parse from SAM notation; throws std::runtime_error on bad input. */
    static Cigar fromString(const std::string &text);

    /** Query characters consumed (M + I + S). */
    int queryLength() const;

    /** Reference characters consumed (M + D). */
    int referenceLength() const;

    /** Reverse the op order (for left extensions stitched onto seeds). */
    Cigar reversed() const;

    bool operator==(const Cigar &) const = default;

  private:
    std::vector<CigarOp> ops_;
};

/**
 * Score an explicit alignment trace under a scoring scheme: replays the
 * CIGAR against the sequences. Used by tests to validate that traceback
 * output is consistent with the DP score.
 *
 * @param query Query segment the CIGAR covers (soft clips excluded).
 * @param target Reference segment the CIGAR covers.
 */
int scoreCigar(const Cigar &cigar, const Sequence &query,
               const Sequence &target, const Scoring &scoring);

} // namespace seedex

#endif // SEEDEX_ALIGN_CIGAR_H

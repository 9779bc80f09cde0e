#ifndef SEEDEX_GENOME_SEQUENCE_H
#define SEEDEX_GENOME_SEQUENCE_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "genome/nucleotide.h"
#include "util/huge_pages.h"

namespace seedex {

/**
 * A DNA sequence stored as one code per base (see nucleotide.h).
 *
 * Sequence is the lingua franca between the genome substrate, the DP
 * kernels and the hardware models. It intentionally stays a thin value
 * type: one byte per base keeps the DP kernels branch-free and lets the
 * hardware models index characters directly; the 2-bit packed form used
 * for accelerator DRAM lives in PackedSequence below.
 */
class Sequence
{
  public:
    Sequence() = default;

    /** Construct from raw codes. */
    explicit Sequence(std::vector<Base> bases) : bases_(std::move(bases)) {}

    /** Parse from an ASCII string like "ACGTN". */
    static Sequence fromString(std::string_view text);

    /** Render as an ASCII string. */
    std::string toString() const;

    size_t size() const { return bases_.size(); }
    bool empty() const { return bases_.empty(); }
    Base operator[](size_t i) const { return bases_[i]; }
    Base &operator[](size_t i) { return bases_[i]; }

    const Base *data() const { return bases_.data(); }
    const std::vector<Base> &bases() const { return bases_; }

    void push_back(Base b) { bases_.push_back(b); }
    void reserve(size_t n) { bases_.reserve(n); }
    void clear() { bases_.clear(); }

    auto begin() const { return bases_.begin(); }
    auto end() const { return bases_.end(); }

    /** Subsequence [pos, pos+len); clamped to the sequence end. */
    Sequence slice(size_t pos, size_t len) const;

    /** Reverse complement (N stays N). */
    Sequence reverseComplement() const;

    /** Reverse complement into caller-owned storage (the recycled,
     *  zero-allocation form once `out` has grown to capacity). */
    void reverseComplementInto(Sequence &out) const;

    /** In-place append of another sequence. */
    void append(const Sequence &other);

    bool operator==(const Sequence &other) const = default;

  private:
    std::vector<Base> bases_;
};

/**
 * 2-bit packed read-only sequence, the format the paper stores for the
 * reference genome in FPGA DRAM. Ambiguous bases must be resolved before
 * packing (the generator substitutes a deterministic base for N, matching
 * how BWA packs its reference). The words sit on huge pages from 2 MiB
 * up: FmdIndex probes its text copy at random positions.
 */
class PackedSequence
{
  public:
    PackedSequence() = default;

    /** Pack a code sequence; N collapses to A (BWA packs Ns pseudo-randomly,
     *  deterministic collapse keeps tests reproducible). */
    static PackedSequence pack(const Sequence &seq);

    /** Number of bases. */
    size_t size() const { return size_; }

    /** Base at index i (always in 0..3). */
    Base
    operator[](size_t i) const
    {
        return static_cast<Base>((words_[i >> 5] >> ((i & 31) * 2)) & 3);
    }

    /** Hint the cache that base i is about to be read. */
    void
    prefetch(size_t i) const
    {
        __builtin_prefetch(&words_[i >> 5], 0, 3);
    }

    /** Unpack [pos, pos+len) back into a code sequence. */
    Sequence unpack(size_t pos, size_t len) const;

    /** Bytes of storage used (the DRAM footprint model input). */
    size_t storageBytes() const { return words_.size() * sizeof(uint64_t); }

  private:
    HugePageVector<uint64_t> words_;
    size_t size_ = 0;
};

} // namespace seedex

#endif // SEEDEX_GENOME_SEQUENCE_H

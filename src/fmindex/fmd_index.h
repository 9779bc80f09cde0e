#ifndef SEEDEX_FMINDEX_FMD_INDEX_H
#define SEEDEX_FMINDEX_FMD_INDEX_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "fmindex/packed_bwt.h"
#include "genome/sequence.h"

namespace seedex {

/**
 * A bidirectional suffix-array interval (Li 2012, the FMD-index).
 *
 * `k` is the start of the interval of pattern W in the index text,
 * `l` the start of the interval of revcomp(W), and `s` the shared size.
 * `info` carries the query end position during SMEM generation (mirrors
 * bwtintv_t.info in BWA).
 */
struct FmdInterval
{
    uint64_t k = 0;
    uint64_t l = 0;
    uint64_t s = 0;
    uint64_t info = 0;

    bool empty() const { return s == 0; }
    bool operator==(const FmdInterval &) const = default;
};

/** One mapped occurrence of a pattern. */
struct FmdHit
{
    /** Position on the forward reference strand. */
    uint64_t pos = 0;
    /** True if the occurrence is on the reverse-complement strand. */
    bool reverse = false;

    bool operator==(const FmdHit &) const = default;
};

/**
 * One backward/forward extension request for FmdIndex::extendBatch.
 * The extension is computed in place — `in` holds the source interval
 * on entry and the extended interval (`info` propagated unchanged) on
 * return — so a request is a single 40-byte record instead of a
 * 72-byte in/out pair; at ~130 extensions per read the round-trip
 * through the request buffer is a measurable share of seeding time.
 */
struct FmdExtendRequest
{
    FmdInterval in;
    Base c = 0;
    bool back = true;
};

/**
 * Per-thread query counters (relaxed, no synchronization): the seeding
 * layer snapshots these around a batch and feeds the deltas to the
 * metrics registry, so the hot occ path never touches an atomic.
 */
struct FmdThreadCounters
{
    /** occ/rank queries issued (2 per extension step, 1 per LF step). */
    uint64_t occ_calls = 0;
    /** Extension steps of a unique match answered by comparing the
     *  query against the index text (forward and backward). */
    uint64_t text_steps = 0;
};

/**
 * FMD-index: an FM-index over the concatenation of the reference and its
 * reverse complement, supporting O(1) bidirectional extension — the data
 * structure behind BWA-MEM's SMEM seeding (and the one ERT accelerates).
 *
 * Alphabet: $ < A < C < G < T (codes shift by one internally); N bases
 * must be resolved before construction (PackedSequence semantics).
 *
 * The BWT is stored as a PackedBwt: 2-bit symbols interleaved with
 * per-cache-line occ checkpoints, so every rank query reads one 64-byte
 * block. The suffix array is sampled by text position (every
 * kSaStep-th position marks its rank), which bounds every locate walk
 * to < kSaStep LF steps.
 *
 * The index also owns its text T = ref . revcomp(ref) . $ (N collapsed
 * to A, length 2L+1) as a 2-bit pack of the forward strand, L/4 bytes:
 * once a pattern has a single occurrence, SMEM search locates it once
 * and extends it by comparing the query against textBase() instead of
 * ranking the BWT.
 */
class FmdIndex
{
  public:
    /** Build from a reference (codes 0..3; N collapses to A). */
    explicit FmdIndex(const Sequence &reference);

    FmdIndex(const FmdIndex &) = delete;
    FmdIndex &operator=(const FmdIndex &) = delete;

    /** Reference length L (the index text is 2L+... with both strands). */
    uint64_t referenceLength() const { return ref_len_; }

    /**
     * Symbol j of the index text T: the forward strand for j < L, its
     * reverse complement for L <= j < 2L, and kBaseN for the sentinel
     * at j = 2L, so the sentinel never matches a query base.
     */
    Base
    textBase(uint64_t j) const
    {
        if (j < ref_len_)
            return text_[j];
        if (j < 2 * ref_len_)
            return static_cast<Base>(3 - text_[2 * ref_len_ - 1 - j]);
        return kBaseN;
    }

    /** Interval of the empty pattern extended by base c (the seed of any
     *  search). */
    FmdInterval init(Base c) const;

    /**
     * Extend interval `in` by base c.
     * @param back true: prepend c to the pattern (backward extension);
     *             false: append c (forward extension, implemented on the
     *             reverse-complement interval).
     */
    FmdInterval extend(const FmdInterval &in, Base c, bool back) const;

    /** Hint the cache that `in` is about to be extended in direction
     *  `back` (the two occ blocks its rank pair reads). */
    void prefetchExtend(const FmdInterval &in, bool back) const;

    /**
     * Extend a batch of independent intervals in place (each request's
     * `in` becomes the extended interval). A fused software-pipelined
     * pass prefetches request r+8's occ blocks while computing request
     * r, so every cache line is in flight several extensions before it
     * is needed instead of stalling per query.
     */
    void extendBatch(FmdExtendRequest *requests, size_t n) const;

    /**
     * Text position of the suffix at BWT row `rank` (the start of the
     * occurrence that row stands for); < kSaStep LF steps.
     */
    uint64_t suffixToText(uint64_t rank) const;

    /** locateStep()'s result on a row that is not sampled. */
    static constexpr uint64_t kUnsampled = ~uint64_t{0};

    /**
     * One step of a locate walk at BWT row `row`, the one primitive
     * every locate walk is built from. On a sampled row, returns its
     * sample slot (see sampleAt) and prefetches the sample. Otherwise
     * moves `row` one LF step back (one occ call), prefetches what the
     * next step reads (see prefetchLocate) and returns kUnsampled. The
     * suffix starts at sampleAt(slot) + the number of LF steps taken.
     */
    uint64_t locateStep(uint64_t &row) const;

    /** Text position of the sample in `slot` (from locateStep). */
    uint64_t
    sampleAt(uint64_t slot) const
    {
        return static_cast<uint64_t>(sa_samples_[slot]);
    }

    /** Hint the cache that a locate walk steps from `row` next: its
     *  BWT block, SA mark word and mark-rank word. */
    void prefetchLocate(uint64_t row) const;

    /** Hint the cache that textBase(j) is read next (no-op at the
     *  sentinel and beyond). */
    void
    prefetchText(uint64_t j) const
    {
        if (j < ref_len_)
            text_.prefetch(j);
        else if (j < 2 * ref_len_)
            text_.prefetch(2 * ref_len_ - 1 - j);
    }

    /** The reference hit of a `pattern_len`-base occurrence that starts
     *  at index-text position `text_pos`. */
    FmdHit
    hitAt(uint64_t text_pos, size_t pattern_len) const
    {
        if (text_pos < ref_len_)
            return {text_pos, false};
        return {2 * ref_len_ - text_pos - pattern_len, true};
    }

    /** All positions of the interval's occurrences (<= max_hits). */
    std::vector<FmdHit> locate(const FmdInterval &interval,
                               size_t max_hits,
                               size_t pattern_len) const;

    /**
     * locate() into a caller-owned vector (appended): the whole
     * interval's suffix-walks advance in lockstep with prefetching, and
     * the steady state allocates nothing (scratch is thread-local).
     */
    void locateInto(const FmdInterval &interval, size_t max_hits,
                    size_t pattern_len, std::vector<FmdHit> &hits) const;

    /** Exact-match interval of a whole pattern (backward search). */
    FmdInterval match(const Sequence &pattern) const;

    /** Bytes used by the index structures, text included (models the
     *  memory-bandwidth discussion of §VIII). */
    size_t storageBytes() const;

    // ---- Serialization.
    /** Write the index (without the text, which is repacked from the
     *  reference at load) to a binary stream; returns false on I/O
     *  failure. */
    bool save(std::ostream &os) const;

    /**
     * The stored arrays of a saved index, read and size-checked but not
     * yet usable: nothing is derived from them until build(). Opaque
     * outside FmdIndex, so a half-built index cannot escape.
     */
    class Stored
    {
      private:
        friend class FmdIndex;
        explicit Stored(std::unique_ptr<FmdIndex> index)
            : index_(std::move(index))
        {}
        std::unique_ptr<FmdIndex> index_;
    };

    /**
     * Read step of load(): the header and the stored arrays of an index
     * saved over a reference of `ref_len` bases. Each array's element
     * count must equal the size the text length T = 2 * ref_len + 1
     * implies, and is checked before anything is allocated, so no
     * payload value sizes an allocation beyond what T allows. Nothing
     * read here indexes memory. Returns nullopt on a malformed or short
     * stream, including one whose layout byte is not 1, the packed
     * layout (0 marks an index with a byte-per-symbol BWT, which must be
     * rebuilt).
     */
    static std::optional<Stored> read(std::istream &is, uint64_t ref_len);

    /**
     * Build step of load(): derive the one structure that indexes memory
     * with stored values (the suffix-array rank directory) and pack the
     * text from `reference`. A caller that checksums the stream runs
     * this only after the checksum matched. Returns nullptr when
     * `reference` has the wrong length or the arrays are inconsistent.
     */
    static std::unique_ptr<FmdIndex> build(Stored stored,
                                           const Sequence &reference);

    /** Load an index previously written by save() over `reference`:
     *  read() then build(). Returns nullptr on a malformed stream or a
     *  reference of the wrong length. */
    static std::unique_ptr<FmdIndex> load(std::istream &is,
                                          const Sequence &reference);

    /** This thread's query counters (see FmdThreadCounters). */
    static FmdThreadCounters &threadCounters();

    /** Sampling step of the suffix array (also the exclusive bound on
     *  any locate walk's LF-step count). */
    static constexpr uint64_t kSaStep = 8;

  private:
    FmdIndex() = default; // for read()

    bool saMarked(uint64_t rank) const;
    uint64_t saSampleSlot(uint64_t rank) const;
    /** The backward extension of `in` by shifted symbol sc, from the
     *  occ counts at its two ends (tk at in.k, tl at in.k + in.s). */
    FmdInterval childFromRanks(const FmdInterval &in, const uint64_t tk[5],
                               const uint64_t tl[5], uint8_t sc) const;
    /** occ of all symbols at both ends of [lo, lo + s). */
    void rankPair(uint64_t lo, uint64_t s, uint64_t tk[5],
                  uint64_t tl[5]) const;
    /** One LF step from BWT row j (counted as one occ call). */
    uint64_t lf(uint64_t j) const;
    /** Derive the SA rank directory from sa_mark_ (it is not stored).
     *  Returns false when sa_mark_ marks a different number of ranks
     *  than sa_samples_ holds. */
    bool deriveRankDirectory();

    uint64_t ref_len_ = 0;
    uint64_t text_len_ = 0; ///< 2 * ref_len_ + 1 (with sentinel)
    PackedSequence text_; ///< forward strand of the text, N -> A
    PackedBwt bwt_; ///< the BWT, its one exception ($) at primary_
    uint64_t primary_ = 0; ///< BWT row whose suffix is the whole text
    uint64_t counts_[6] = {}; ///< C array (cumulative symbol counts)
    /** Position-sampled suffix array: ranks whose text position is a
     *  multiple of kSaStep are marked; samples are stored in rank
     *  order and found via a word-level rank directory. Like the BWT
     *  blocks and the text, these sit on huge pages from 2 MiB up. */
    HugePageVector<uint64_t> sa_mark_;
    HugePageVector<uint32_t> sa_mark_rank_;
    HugePageVector<int32_t> sa_samples_;
};

} // namespace seedex

#endif // SEEDEX_FMINDEX_FMD_INDEX_H

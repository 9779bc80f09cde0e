#ifndef SEEDEX_FMINDEX_SMEM_H
#define SEEDEX_FMINDEX_SMEM_H

#include <cstdint>
#include <vector>

#include "fmindex/fmd_index.h"

namespace seedex {

/** Smem::text_pos of a match known only by its interval. */
inline constexpr uint64_t kNoTextPos = ~uint64_t{0};

/** A supermaximal exact match of a query against the index. */
struct Smem
{
    /** Query span [qbeg, qend). */
    int qbeg = 0;
    int qend = 0;
    /** Bidirectional interval of the match (s = occurrence count, info
     *  = qend). A located match keeps only s (= 1): its k and l are 0. */
    FmdInterval interval;
    /** Index-text position where the single occurrence of a located
     *  match starts; kNoTextPos when the match is known only by its
     *  interval. */
    uint64_t text_pos = kNoTextPos;

    int length() const { return qend - qbeg; }
    bool located() const { return text_pos != kNoTextPos; }
    bool operator==(const Smem &) const = default;
};

/**
 * Reusable scratch of the lockstep batch driver. One instance per
 * thread (the seeding layer owns a thread-local one); buffers grow to
 * the workload high-water mark and are reused, so steady-state SMEM
 * generation performs zero heap allocations. The members are an
 * implementation detail of smem.cc.
 */
struct SmemWorkspace
{
    /** One read's in-flight search in the lockstep batch driver. */
    struct State
    {
        enum class Phase : uint8_t {
            NextCandidate,
            Backward, ///< growing [a, e) leftwards
            Forward,  ///< growing [a, t) rightwards
            Locate,   ///< walking a unique match to the text
            Done
        };

        const Sequence *query = nullptr;
        std::vector<Smem> *out = nullptr;
        int len = 0;
        int e = 0; ///< candidate end of the backward search
        int a = 0; ///< start of the current match
        int t = 0; ///< end of the current match in the forward search
        /** Text position where the unique current match starts, or
         *  kNoTextPos while it is on the BWT. */
        uint64_t tpos = kNoTextPos;
        size_t req = 0; ///< this round's request, in Backward/Forward
        /** Phase::Locate's walk, one FmdIndex::locateStep per round:
         *  the BWT row it stands on, its LF steps so far, the sample
         *  slot once the row is sampled (FmdIndex::kUnsampled until
         *  then) and the phase that resumes once tpos is set. */
        uint64_t loc_row = 0;
        uint64_t loc_slot = FmdIndex::kUnsampled;
        uint32_t loc_steps = 0;
        Phase resume = Phase::Done;
        Phase phase = Phase::Done;
        FmdInterval iv; ///< interval of the current match
    };

    std::vector<State> states;
    std::vector<FmdExtendRequest> requests;
    /** Indices of states still in flight; compacted as reads finish. */
    std::vector<uint32_t> active;
};

/**
 * SMEM generation, the seeding algorithm of BWA-MEM (and the workload
 * ERT accelerates), restricted to SMEMs of at least L = max(1,
 * min_seed_len) bases: the forward-backward search of ropebwt3 (Li,
 * "BWT construction and search at the terabase scale", 2024). From a
 * candidate end e (first L), search the query backward to the longest
 * match [a, e) that occurs. When e − a < L, no match of length L or
 * more ends before a + L, the next candidate. Otherwise extend [a, e)
 * forward to its right end t: [a, t) is an SMEM, and the search
 * continues at e = t + 1. Matches that cover an N or a base absent from
 * the index do not occur. SMEMs come out in query order.
 *
 * A match with a single occurrence is located once and from then on
 * extends, in either direction, by comparing the query against the
 * index text (FmdIndex::textBase); every unique SMEM is `located()`.
 */
std::vector<Smem> collectSmems(const FmdIndex &index, const Sequence &query,
                               int min_seed_len = 19);

/** collectSmems into a caller-owned vector (the zero-allocation form;
 *  `out` is cleared first). */
void collectSmemsInto(const FmdIndex &index, const Sequence &query,
                      int min_seed_len, std::vector<Smem> &out);

/**
 * Lockstep SMEM generation for a batch of reads: all reads' searches
 * advance one extension round at a time through FmdIndex::extendBatch,
 * which prefetches every read's next BWT block before computing any of
 * them — the memory-level-parallelism driver of the seeding stage. A
 * unique match walks to the text one LF step per round (Phase::Locate),
 * its next row prefetched a round ahead, so its misses overlap the
 * other reads' extensions too. `out` must have n entries; each is
 * cleared and filled with exactly the SMEMs collectSmems would produce
 * for that read, with the same index queries.
 */
void collectSmemsBatch(const FmdIndex &index,
                       const Sequence *const *queries, size_t n,
                       int min_seed_len, SmemWorkspace &ws,
                       std::vector<std::vector<Smem>> &out);

} // namespace seedex

#endif // SEEDEX_FMINDEX_SMEM_H

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
    /** Bidirectional interval of the match (s = occurrence count). A
     *  located match keeps only s (= 1): its k and l are 0. */
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
 * Reusable scratch for SMEM generation. One instance per thread (the
 * seeding layer owns a thread-local one); buffers grow to the workload
 * high-water mark and are reused, so steady-state SMEM generation
 * performs zero heap allocations. The members are an implementation
 * detail of smem.cc.
 */
struct SmemWorkspace
{
    /** One read's in-flight search in the lockstep batch driver. */
    struct State
    {
        enum class Phase : uint8_t { NextPivot, Forward, Backward, Done };

        const Sequence *query = nullptr;
        std::vector<Smem> *out = nullptr;
        int len = 0;
        int x = 0;   ///< current pivot
        int i = 0;   ///< forward/backward loop position
        int ret = 0; ///< next pivot once this one finishes
        uint32_t code = 0; ///< packed k-mer prefix of the forward sweep
        /** Text position of the pivot's unique match (ik during the
         *  forward sweep, prev[0] during the backward pass), or
         *  kNoTextPos while it is still on the BWT. */
        uint64_t tpos = kNoTextPos;
        size_t pivot_start = 0; ///< out->size() when the pivot began
        size_t req_first = 0;   ///< this round's slice of the request buffer
        size_t req_count = 0;
        Phase phase = Phase::Done;
        FmdInterval ik;
        std::vector<FmdInterval> curr, prev;
    };

    std::vector<State> states;
    std::vector<FmdExtendRequest> requests;
    /** Indices of states still in flight; compacted as reads finish. */
    std::vector<uint32_t> active;
    /** Scalar-path interval stacks (collectSmemsInto). */
    std::vector<FmdInterval> curr, prev;
};

/**
 * SMEM generation, the seeding algorithm of BWA-MEM (and the workload ERT
 * accelerates): for each query position, find all supermaximal exact
 * matches covering it via forward extension followed by a backward
 * shrink pass (Li 2012 / bwt_smem1). When the index carries a k-mer
 * interval table, the first k forward steps of every sweep are table
 * lookups instead of occ queries. With min_intv == 1, once the forward
 * sweep's match has a single occurrence it is located once and extends
 * by comparing the query against the index text (FmdIndex::textBase),
 * forward and then backward; the SMEM it ends as is `located()`.
 *
 * @param min_seed_len Discard SMEMs shorter than this (BWA default 19).
 * @param min_intv Minimum interval size to keep extending (default 1).
 */
std::vector<Smem> collectSmems(const FmdIndex &index, const Sequence &query,
                               int min_seed_len = 19,
                               uint64_t min_intv = 1);

/** collectSmems into a caller-owned vector with reusable scratch (the
 *  zero-allocation form; `out` is cleared first). */
void collectSmemsInto(const FmdIndex &index, const Sequence &query,
                      int min_seed_len, uint64_t min_intv,
                      SmemWorkspace &ws, std::vector<Smem> &out);

/**
 * Lockstep SMEM generation for a batch of reads: all reads' searches
 * advance one extension round at a time through FmdIndex::extendBatch,
 * which prefetches every read's next BWT block before computing any of
 * them — the memory-level-parallelism driver of the seeding stage.
 * `out` must have n entries; each is cleared and filled with exactly
 * the SMEMs collectSmems would produce for that read.
 */
void collectSmemsBatch(const FmdIndex &index,
                       const Sequence *const *queries, size_t n,
                       int min_seed_len, uint64_t min_intv,
                       SmemWorkspace &ws,
                       std::vector<std::vector<Smem>> &out);

} // namespace seedex

#endif // SEEDEX_FMINDEX_SMEM_H

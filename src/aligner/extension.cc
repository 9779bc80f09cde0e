#include "aligner/extension.h"

#include <algorithm>

#include "align/workspace.h"

namespace seedex {

namespace {

/** Overwrite `out` with `len` bases of `src` from `pos`, reversed when
 *  `reverse` is set, reusing `out`'s storage. */
void
copyFlank(Sequence &out, const Sequence &src, size_t pos, size_t len,
          bool reverse)
{
    out.clear();
    for (size_t i = 0; i < len; ++i)
        out.push_back(src[reverse ? pos + len - 1 - i : pos + i]);
}

} // namespace

ExtendResult
FullBandEngine::extend(const ExtensionJob &job)
{
    ++calls_;
    ExtendConfig cfg;
    cfg.scoring = scoring_;
    // BWA-MEM sizes the band from the query length *including* the clip
    // penalty (pen_clip enters max_ins/max_del), which matters for short
    // flanks where a to-end gap can beat clipping by up to the bonus.
    cfg.band = estimateFullBand(static_cast<int>(job.query.size()),
                                scoring_, end_bonus_);
    return kswExtend(job.query, job.target, job.h0, cfg);
}

ExtendResult
BandedEngine::extend(const ExtensionJob &job)
{
    ++calls_;
    ExtendConfig cfg;
    cfg.scoring = scoring_;
    // BWA caps the configured band at the per-extension estimate (the
    // estimate is the band that cannot miss anything affordable).
    const int est = estimateFullBand(static_cast<int>(job.query.size()),
                                     scoring_, end_bonus_);
    cfg.band = std::min(band_, est);
    cfg.zdrop = zdrop_;
    const ExtendResult r = kswExtend(job.query, job.target, job.h0, cfg);
    // Unguaranteed-path provenance: this engine has no optimality
    // checks, so the ledger records *why* its output may diverge from
    // the full band (Fig. 13): the kernel z-dropped, or the optimal
    // path pressed against a band narrower than the estimate.
    if (obs::ReadRecord *rec = obs::Ledger::active()) {
        if (r.zdropped)
            ++rec->zdrops;
        if (cfg.band < est && r.max_off >= cfg.band)
            ++rec->band_clips;
    }
    return r;
}

ExtendResult
SeedExEngine::extend(const ExtensionJob &job)
{
    ++calls_;
    const Speculation sp =
        filter_.speculate(job.query, job.target, job.h0, &stats_);
    reruns_ += sp.accepted() ? 0 : 1;
    return sp.result;
}

void
ExtensionEngine::extendBatch(std::span<const ExtensionJob> jobs,
                             std::vector<ExtendResult> &results,
                             std::span<obs::ReadRecord *const> records)
{
    for (size_t k = 0; k < jobs.size(); ++k) {
        obs::ReadRecord *rec = records.empty() ? nullptr : records[k];
        const obs::ActiveRecord active(rec);
        results.push_back(extend(jobs[k]));
        if (rec != nullptr)
            ++rec->extensions;
    }
}

void
DeviceEngine::extendBatch(std::span<const ExtensionJob> jobs,
                          std::vector<ExtendResult> &results,
                          std::span<obs::ReadRecord *const> records)
{
    const BatchResult res = device_.processBatch(jobs, results, records);
    calls_ += jobs.size();
    reruns_ += res.reruns_checks + res.reruns_exception;
    cycles_ += res.device_cycles;
}

void
extendChains(std::span<ChainSlot> slots, const Sequence &reference,
             const ExtensionParams &params, ExtensionBatch &batch,
             const ExtensionSubmit &submit)
{
    size_t longest = 0;
    for (ChainSlot &slot : slots) {
        const Seed &anchor = slot.chain->anchor();
        ChainAlignment &aln = slot.aln;
        aln = ChainAlignment{};
        aln.reverse = slot.chain->reverse;
        aln.seed_score = anchor.len * params.scoring.match;
        aln.score = aln.seed_score;
        aln.qbeg = anchor.qbeg;
        aln.qend = anchor.qend();
        aln.rbeg = anchor.rbeg;
        aln.rend = anchor.rend();
        longest = std::max(longest, slot.read->size());
    }
    // Both flanks are bounded by the read length plus the window slack;
    // sizing the thread's workspace here keeps steady-state runs
    // allocation-free.
    DpWorkspace::tls().prepareExtension(
        longest, longest + static_cast<size_t>(params.window_slack));

    const uint64_t ref_len = reference.size();
    for (const bool left : {true, false}) {
        size_t n_jobs = 0;
        for (size_t s = 0; s < slots.size(); ++s) {
            const ChainSlot &slot = slots[s];
            const Seed &anchor = slot.chain->anchor();
            const int n = static_cast<int>(slot.read->size());
            const int qlen = left ? anchor.qbeg : n - anchor.qend();
            if (qlen <= 0)
                continue;
            // Reference window: the query remainder plus the slack (BWA's
            // rmax band margin), cut at the reference ends.
            const uint64_t avail = left
                ? anchor.rbeg
                : ref_len - std::min<uint64_t>(ref_len, anchor.rend());
            const size_t tlen = static_cast<size_t>(std::min<uint64_t>(
                avail, static_cast<uint64_t>(qlen + params.window_slack)));
            if (n_jobs == batch.job_storage.size()) {
                batch.job_storage.emplace_back();
                batch.slot_of.emplace_back();
            }
            ExtensionJob &job = batch.job_storage[n_jobs];
            copyFlank(job.query, *slot.read,
                      static_cast<size_t>(left ? 0 : anchor.qend()),
                      static_cast<size_t>(qlen), left);
            copyFlank(job.target, reference,
                      left ? anchor.rbeg - tlen : anchor.rend(), tlen, left);
            // h0: the seed score for a left flank; for a right flank, the
            // score after the left one ("the initial score must be
            // updated with the left extension score", §V-B).
            job.h0 = slot.aln.score;
            batch.slot_of[n_jobs++] = s;
        }
        if (n_jobs == 0)
            continue;
        batch.n_jobs = n_jobs;
        batch.results.clear();
        submit(batch);

        for (size_t k = 0; k < n_jobs; ++k) {
            ChainSlot &slot = slots[batch.slot_of[k]];
            ChainAlignment &aln = slot.aln;
            const ExtendResult &r = batch.results[k];
            aln.max_off = std::max(aln.max_off, r.max_off);
            // BWA's clip decision: prefer reaching the read end unless
            // the local max beats it by more than the end bonus.
            const bool clip =
                r.gscore <= 0 || r.gscore < r.score - params.end_bonus;
            aln.score = clip ? r.score : r.gscore;
            // Bases the flank adds beyond the anchor (this side's ends
            // are still the anchor's).
            const int n = static_cast<int>(slot.read->size());
            const int qext = clip ? r.qle : (left ? aln.qbeg : n - aln.qend);
            const uint64_t text = static_cast<uint64_t>(clip ? r.tle : r.gtle);
            if (left) {
                aln.qbeg -= qext;
                aln.rbeg -= text;
            } else {
                aln.qend += qext;
                aln.rend += text;
            }
        }
    }
}

ChainAlignment
extendChain(const Chain &chain, const Sequence &oriented_read,
            const Sequence &reference, ExtensionEngine &engine,
            const ExtensionParams &params)
{
    thread_local ExtensionBatch batch;
    ChainSlot slot{&chain, &oriented_read, {}};
    extendChains({&slot, 1}, reference, params, batch,
                 [&engine](ExtensionBatch &b) {
                     engine.ExtensionEngine::extendBatch(b.jobs(), b.results,
                                                         {});
                 });
    return slot.aln;
}

} // namespace seedex

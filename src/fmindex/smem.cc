#include "fmindex/smem.h"

#include <algorithm>
#include <cassert>

namespace seedex {

namespace {

/**
 * Move a unique interval onto the text: resolve where its single
 * occurrence starts (< kSaStep LF steps) and drop k and l, which
 * nothing keeps current from here on. Only s (= 1) and info stay.
 */
uint64_t
locateUnique(const FmdIndex &index, FmdInterval &iv)
{
    const uint64_t tpos = index.suffixToText(iv.k);
    iv.k = iv.l = 0;
    return tpos;
}

/**
 * Forward step of the unique interval `ik` of a `plen`-base match,
 * located on first use (tpos = where it starts): appending c keeps it
 * (still unique) iff the next text symbol is c. A pattern with one
 * occurrence can only extend where it occurs.
 */
inline bool
textExtendsForward(const FmdIndex &index, FmdInterval &ik, uint64_t &tpos,
                   int plen, Base c)
{
    if (tpos == kNoTextPos)
        tpos = locateUnique(index, ik);
    ++FmdIndex::threadCounters().text_steps;
    return index.textBase(tpos + static_cast<uint64_t>(plen)) == c;
}

/**
 * One backward round, shared by both drivers: prepend c (>= kNumBases
 * when ambiguous or off the read: every extension dies) to each
 * interval in prev, covering query[i+1, info). When tpos is set, prev[0]
 * is the pivot's unique match starting at T[tpos] and extends iff
 * T[tpos-1] == c; every other interval is extended by `bwt(p, r)`, r
 * counting the BWT-extended intervals from 0. Whenever an interval can
 * no longer grow leftwards, its longest survivor is an SMEM. Returns
 * false when nothing survives (the pivot is exhausted); otherwise the
 * survivors become prev.
 */
template <typename BwtExtend>
bool
backwardRound(const FmdIndex &index, Base c, int i, uint64_t min_intv,
              size_t pivot_start, uint64_t &tpos,
              std::vector<FmdInterval> &prev, std::vector<FmdInterval> &curr,
              std::vector<Smem> &out, BwtExtend &&bwt)
{
    curr.clear();
    const size_t on_text = tpos != kNoTextPos ? 1 : 0;
    bool text_kept = false;
    for (size_t j = 0; j < prev.size(); ++j) {
        const FmdInterval &p = prev[j];
        FmdInterval ok;
        bool grows = false;
        if (c >= kNumBases) {
            // Ambiguous or off the read: nothing grows.
        } else if (j < on_text) {
            ++FmdIndex::threadCounters().text_steps;
            text_kept = grows = tpos > 0 && index.textBase(tpos - 1) == c;
            ok = p;
        } else {
            ok = bwt(p, j - on_text);
            grows = ok.s >= min_intv;
        }
        if (!grows) {
            if (curr.empty() &&
                (out.size() == pivot_start || i + 1 < out.back().qbeg)) {
                Smem smem;
                smem.qbeg = i + 1;
                smem.qend = static_cast<int>(p.info);
                smem.interval = p;
                if (j < on_text)
                    smem.text_pos = tpos;
                out.push_back(smem);
            }
            // Otherwise this match is contained in a longer one.
        } else if (curr.empty() || ok.s != curr.back().s) {
            ok.info = p.info;
            curr.push_back(ok);
        }
    }
    tpos = text_kept ? tpos - 1 : kNoTextPos;
    if (curr.empty())
        return false;
    std::swap(curr, prev);
    return true;
}

/**
 * Compute all SMEMs covering query position x; returns the position at
 * which the next sweep should start (one past the longest match from x).
 * A port of BWA's bwt_smem1 over our FmdIndex.
 */
int
smem1(const FmdIndex &index, const Sequence &query, int x,
      uint64_t min_intv, std::vector<FmdInterval> &curr,
      std::vector<FmdInterval> &prev, std::vector<Smem> &out)
{
    const int len = static_cast<int>(query.size());
    if (query[x] >= kNumBases)
        return x + 1; // ambiguous base: no match covers it

    curr.clear();
    prev.clear();
    // With min_intv == 1 a unique match is kept until it dies, so it
    // leaves the BWT for the text; tpos is where it starts.
    const bool text = min_intv == 1;
    uint64_t tpos = kNoTextPos;
    FmdInterval ik = index.init(query[x]);
    ik.info = static_cast<uint64_t>(x) + 1;

    // Forward sweep: grow [x, i) and record every interval-size drop.
    int i;
    for (i = x + 1; i < len; ++i) {
        if (query[i] >= kNumBases) {
            curr.push_back(ik);
            break;
        }
        if (text && ik.s == 1) {
            if (!textExtendsForward(index, ik, tpos, i - x, query[i])) {
                curr.push_back(ik);
                break;
            }
            ik.info = static_cast<uint64_t>(i) + 1;
            continue;
        }
        const FmdInterval ok = index.extend(ik, query[i], false);
        if (ok.s != ik.s) {
            curr.push_back(ik);
            if (ok.s < min_intv)
                break;
        }
        ik = ok;
        ik.info = static_cast<uint64_t>(i) + 1;
    }
    if (i == len)
        curr.push_back(ik);
    // Visit longer matches (smaller intervals) first; a unique match
    // was pushed last, so it is prev[0] from here on.
    std::reverse(curr.begin(), curr.end());
    const int ret = static_cast<int>(curr.front().info);
    std::swap(curr, prev);
    if (text && prev[0].s == 1 && tpos == kNoTextPos)
        tpos = locateUnique(index, prev[0]);

    // Backward shrink: prepend characters until nothing survives.
    const size_t pivot_start = out.size();
    for (i = x - 1;; --i) {
        const Base c = i < 0 ? kBaseN : query[i];
        auto bwt = [&](const FmdInterval &p, size_t) {
            return index.extend(p, c, true);
        };
        if (!backwardRound(index, c, i, min_intv, pivot_start, tpos, prev,
                           curr, out, bwt))
            break;
    }
    return ret;
}

/** Drop SMEMs below the length floor (order-preserving), then order by
 *  query span — shared tail of the scalar and batch paths. */
void
finalizeSmems(std::vector<Smem> &all, int min_seed_len)
{
    all.erase(std::remove_if(all.begin(), all.end(),
                             [&](const Smem &s) {
                                 return s.length() < min_seed_len;
                             }),
              all.end());
    std::sort(all.begin(), all.end(), [](const Smem &a, const Smem &b) {
        return a.qbeg != b.qbeg ? a.qbeg < b.qbeg : a.qend < b.qend;
    });
}

// --------------------------------------------------------------------
// Lockstep batch driver: the same smem1 automaton, unrolled into an
// emit/consume state machine so a whole batch of reads can advance one
// extension round at a time through FmdIndex::extendBatch.

using State = SmemWorkspace::State;
using Phase = State::Phase;

/** Forward-sweep transition on the next interval `ok`; returns true
 *  when the forward pass is finished. */
bool
applyForwardStep(State &st, const FmdInterval &ok, uint64_t min_intv)
{
    if (ok.s != st.ik.s) {
        st.curr.push_back(st.ik);
        if (ok.s < min_intv)
            return true;
    }
    st.ik = ok;
    st.ik.info = static_cast<uint64_t>(st.i) + 1;
    ++st.i;
    return false;
}

/**
 * Start walking the unique interval `iv` to the text (Phase::Locate);
 * `resume` runs once tpos is set. As in locateUnique, k and l are
 * dropped: the walk starts from k, and nothing reads either again. The
 * first step waits a round for its row's prefetch.
 */
void
enterLocate(const FmdIndex &index, State &st, FmdInterval &iv,
            Phase resume)
{
    st.loc_row = iv.k;
    st.loc_slot = FmdIndex::kUnsampled;
    st.loc_steps = 0;
    st.resume = resume;
    iv.k = iv.l = 0;
    index.prefetchLocate(st.loc_row);
    st.phase = Phase::Locate;
}

/** Close the forward sweep and arm the backward shrink pass (a unique
 *  match, now prev[0], is located first if the sweep has not done so). */
void
finishForward(const FmdIndex &index, State &st, uint64_t min_intv)
{
    std::reverse(st.curr.begin(), st.curr.end());
    st.ret = static_cast<int>(st.curr.front().info);
    std::swap(st.curr, st.prev);
    st.i = st.x - 1;
    st.phase = Phase::Backward;
    if (min_intv == 1 && st.prev[0].s == 1 && st.tpos == kNoTextPos)
        enterLocate(index, st, st.prev[0], Phase::Backward);
}

/** One backward round of `st` prepending c (see backwardRound); moves
 *  on to the next pivot once this one is exhausted. */
template <typename BwtExtend>
void
stepBackward(const FmdIndex &index, State &st, Base c, uint64_t min_intv,
             BwtExtend &&bwt)
{
    if (backwardRound(index, c, st.i, min_intv, st.pivot_start, st.tpos,
                      st.prev, st.curr, *st.out, bwt)) {
        --st.i;
    } else {
        st.x = st.ret;
        st.phase = Phase::NextPivot;
    }
}

/**
 * Advance `st` until it either appends extension requests for this
 * round (req_count > 0), takes its one locate step of the round, or
 * runs out of work (Phase::Done). All other transitions that need no
 * occ query — pivot management, ambiguous bases, text steps of a
 * unique match, dead backward rounds — happen here, so a round never
 * stalls on a read that has cheap work to do.
 */
void
emitRequests(const FmdIndex &index, State &st, uint64_t min_intv,
             std::vector<FmdExtendRequest> &requests)
{
    const Sequence &q = *st.query;
    const bool text = min_intv == 1;
    st.req_count = 0;
    for (;;) {
        switch (st.phase) {
          case Phase::Done:
            return;
          case Phase::NextPivot: {
            if (st.x >= st.len) {
                st.phase = Phase::Done;
                return;
            }
            if (q[st.x] >= kNumBases) {
                ++st.x;
                continue;
            }
            st.pivot_start = st.out->size();
            st.curr.clear();
            st.prev.clear();
            st.tpos = kNoTextPos;
            st.ik = index.init(q[st.x]);
            st.ik.info = static_cast<uint64_t>(st.x) + 1;
            st.i = st.x + 1;
            st.phase = Phase::Forward;
            continue;
          }
          case Phase::Forward: {
            if (st.i >= st.len || q[st.i] >= kNumBases) {
                st.curr.push_back(st.ik);
                finishForward(index, st, min_intv);
                if (st.phase == Phase::Locate)
                    return; // the walk's first row is in flight
                continue;
            }
            if (text && st.ik.s == 1) {
                if (st.tpos == kNoTextPos) {
                    enterLocate(index, st, st.ik, Phase::Forward);
                    return;
                }
                if (textExtendsForward(index, st.ik, st.tpos, st.i - st.x,
                                       q[st.i])) {
                    st.ik.info = static_cast<uint64_t>(st.i) + 1;
                    ++st.i;
                } else {
                    st.curr.push_back(st.ik);
                    finishForward(index, st, min_intv);
                }
                continue;
            }
            st.req_first = requests.size();
            st.req_count = 1;
            requests.push_back({st.ik, q[st.i], false});
            return;
          }
          case Phase::Backward: {
            const Base c = st.i < 0 ? kBaseN : q[st.i];
            // prev[0] extends by comparison when it is on the text.
            const size_t on_text = st.tpos != kNoTextPos ? 1 : 0;
            if (c >= kNumBases || st.prev.size() == on_text) {
                // Every extension is dead or answered by the text; no
                // occ queries needed.
                stepBackward(index, st, c, min_intv,
                             [](const FmdInterval &, size_t) {
                                 return FmdInterval{};
                             });
                continue;
            }
            st.req_first = requests.size();
            st.req_count = st.prev.size() - on_text;
            for (size_t j = on_text; j < st.prev.size(); ++j)
                requests.push_back({st.prev[j], c, true});
            return;
          }
          case Phase::Locate: {
            // One step a round, on the row prefetched the round before.
            if (st.loc_slot == FmdIndex::kUnsampled) {
                st.loc_slot = index.locateStep(st.loc_row);
                st.loc_steps += st.loc_slot == FmdIndex::kUnsampled;
                assert(st.loc_steps < FmdIndex::kSaStep &&
                       "locate walk exceeded kSaStep");
                return;
            }
            if (st.tpos == kNoTextPos) {
                // The sample is in: prefetch the text base the resumed
                // phase compares first, and wait a round for it.
                st.tpos = index.sampleAt(st.loc_slot) + st.loc_steps;
                index.prefetchText(
                    st.resume == Phase::Forward
                        ? st.tpos + static_cast<uint64_t>(st.i - st.x)
                        : st.tpos - 1);
                return;
            }
            st.phase = st.resume;
            continue;
          }
        }
    }
}

/** Fold this round's extension results back into `st`. */
void
consumeResults(const FmdIndex &index, State &st, uint64_t min_intv,
               const std::vector<FmdExtendRequest> &requests)
{
    if (st.req_count == 0)
        return;
    const FmdExtendRequest *results = &requests[st.req_first];
    if (st.phase == Phase::Forward) {
        if (applyForwardStep(st, results[0].in, min_intv))
            finishForward(index, st, min_intv);
        return;
    }
    stepBackward(index, st, (*st.query)[st.i], min_intv,
                 [results](const FmdInterval &, size_t r) {
                     return results[r].in;
                 });
}

} // namespace

void
collectSmemsInto(const FmdIndex &index, const Sequence &query,
                 int min_seed_len, uint64_t min_intv, SmemWorkspace &ws,
                 std::vector<Smem> &out)
{
    out.clear();
    const int len = static_cast<int>(query.size());
    int x = 0;
    while (x < len)
        x = smem1(index, query, x, min_intv, ws.curr, ws.prev, out);
    finalizeSmems(out, min_seed_len);
}

std::vector<Smem>
collectSmems(const FmdIndex &index, const Sequence &query, int min_seed_len,
             uint64_t min_intv)
{
    std::vector<Smem> all;
    SmemWorkspace ws;
    collectSmemsInto(index, query, min_seed_len, min_intv, ws, all);
    return all;
}

void
collectSmemsBatch(const FmdIndex &index, const Sequence *const *queries,
                  size_t n, int min_seed_len, uint64_t min_intv,
                  SmemWorkspace &ws, std::vector<std::vector<Smem>> &out)
{
    if (ws.states.size() < n)
        ws.states.resize(n);
    ws.active.clear();
    for (size_t r = 0; r < n; ++r) {
        State &st = ws.states[r];
        st.query = queries[r];
        st.out = &out[r];
        st.out->clear();
        st.len = static_cast<int>(queries[r]->size());
        st.x = 0;
        st.phase = Phase::NextPivot;
        ws.active.push_back(static_cast<uint32_t>(r));
    }

    // Reads drain at different rates (repeat-heavy reads take more
    // rounds), so finished states are compacted out of the active list
    // rather than re-scanned every round until the batch drains.
    while (!ws.active.empty()) {
        ws.requests.clear();
        size_t kept = 0;
        for (const uint32_t r : ws.active) {
            State &st = ws.states[r];
            emitRequests(index, st, min_intv, ws.requests);
            if (st.phase != Phase::Done)
                ws.active[kept++] = r;
        }
        ws.active.resize(kept);
        if (ws.requests.empty())
            continue;
        index.extendBatch(ws.requests.data(), ws.requests.size());
        for (const uint32_t r : ws.active)
            consumeResults(index, ws.states[r], min_intv, ws.requests);
    }

    for (size_t r = 0; r < n; ++r) {
        finalizeSmems(out[r], min_seed_len);
        ws.states[r].query = nullptr;
        ws.states[r].out = nullptr;
    }
}

} // namespace seedex

#include "fmindex/smem.h"

#include <algorithm>
#include <cassert>

namespace seedex {

namespace {

/**
 * Move a unique interval onto the text: resolve where its single
 * occurrence starts (< kSaStep LF steps) and drop k and l, which
 * nothing keeps current from here on. Only s (= 1) stays.
 */
uint64_t
locateUnique(const FmdIndex &index, FmdInterval &iv)
{
    const uint64_t tpos = index.suffixToText(iv.k);
    iv.k = iv.l = 0;
    return tpos;
}

/**
 * One step of a located unique match: it extends by base c iff the
 * text position j it would cover holds c, since a pattern with one
 * occurrence can only extend where it occurs. A backward step from
 * T[0] asks for j = 0 − 1, which wraps past the sentinel, where
 * textBase reads N and never matches.
 */
inline bool
textExtends(const FmdIndex &index, uint64_t j, Base c)
{
    ++FmdIndex::threadCounters().text_steps;
    return index.textBase(j) == c;
}

/** The base a backward step prepends to a match starting at a (N at
 *  the read start). */
inline Base
baseBefore(const Sequence &query, int a)
{
    return a > 0 ? query[a - 1] : kBaseN;
}

/** The base a forward step appends to a match ending at t (N at the
 *  read end). */
inline Base
baseAt(const Sequence &query, int t, int len)
{
    return t < len ? query[t] : kBaseN;
}

void
appendSmem(std::vector<Smem> &out, int a, int t, const FmdInterval &iv,
           uint64_t tpos)
{
    Smem smem;
    smem.qbeg = a;
    smem.qend = t;
    smem.interval = iv;
    smem.interval.info = static_cast<uint64_t>(t);
    smem.text_pos = tpos;
    out.push_back(smem);
}

// --------------------------------------------------------------------
// Lockstep batch driver: the scalar search of collectSmemsInto,
// unrolled into an emit/consume state machine so a whole batch of
// reads can advance one extension round at a time through
// FmdIndex::extendBatch.

using State = SmemWorkspace::State;
using Phase = State::Phase;

/**
 * Start walking the unique current match to the text (Phase::Locate);
 * `resume` runs once tpos is set. As in locateUnique, k and l are
 * dropped: the walk starts from k, and nothing reads either again. The
 * first step waits a round for its row's prefetch.
 */
void
enterLocate(const FmdIndex &index, State &st, Phase resume)
{
    st.loc_row = st.iv.k;
    st.loc_slot = FmdIndex::kUnsampled;
    st.loc_steps = 0;
    st.resume = resume;
    st.iv.k = st.iv.l = 0;
    index.prefetchLocate(st.loc_row);
    st.phase = Phase::Locate;
}

/** The backward search has found [a, e): skip to the next candidate
 *  when it is shorter than the floor, else grow it forward. */
void
endBackward(State &st, int floor)
{
    if (st.e - st.a < floor) {
        st.e = st.a + floor;
        st.phase = Phase::NextCandidate;
    } else {
        st.t = st.e;
        st.phase = Phase::Forward;
    }
}

/** The forward search has found the right end t: [a, t) is an SMEM. */
void
endForward(State &st)
{
    appendSmem(*st.out, st.a, st.t, st.iv, st.tpos);
    st.e = st.t + 1;
    st.phase = Phase::NextCandidate;
}

/**
 * Advance `st` until it either appends its extension request for this
 * round (Phase::Backward or Forward on return), takes its one locate
 * step of the round (Phase::Locate), or runs out of work (Phase::Done).
 * All other transitions that need no occ query — candidates, ambiguous
 * bases and read ends, text steps of a unique match — happen here, so
 * a round never stalls on a read that has cheap work to do.
 */
void
emitRequests(const FmdIndex &index, State &st, int floor,
             std::vector<FmdExtendRequest> &requests)
{
    const Sequence &q = *st.query;
    for (;;) {
        switch (st.phase) {
          case Phase::Done:
            return;
          case Phase::NextCandidate:
            if (st.e > st.len) {
                st.phase = Phase::Done;
                return;
            }
            st.iv = index.init(q[st.e - 1]);
            st.tpos = kNoTextPos;
            if (st.iv.empty()) {
                st.e += floor; // no match covers q[e − 1]
                continue;
            }
            st.a = st.e - 1;
            st.phase = Phase::Backward;
            continue;
          case Phase::Backward: {
            const Base c = baseBefore(q, st.a);
            if (c >= kNumBases) {
                endBackward(st, floor);
                continue;
            }
            if (st.iv.s > 1) {
                st.req = requests.size();
                requests.push_back({st.iv, c, true});
                return;
            }
            if (st.tpos == kNoTextPos) {
                enterLocate(index, st, Phase::Backward);
                return;
            }
            if (textExtends(index, st.tpos - 1, c)) {
                --st.tpos;
                --st.a;
            } else {
                endBackward(st, floor);
            }
            continue;
          }
          case Phase::Forward: {
            if (st.iv.s == 1) {
                if (st.tpos == kNoTextPos) {
                    enterLocate(index, st, Phase::Forward);
                    return;
                }
                Base c;
                while ((c = baseAt(q, st.t, st.len)) < kNumBases &&
                       textExtends(index,
                                   st.tpos +
                                       static_cast<uint64_t>(st.t - st.a),
                                   c))
                    ++st.t;
                endForward(st);
                continue;
            }
            const Base c = baseAt(q, st.t, st.len);
            if (c >= kNumBases) {
                endForward(st);
                continue;
            }
            st.req = requests.size();
            requests.push_back({st.iv, c, false});
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
                        ? st.tpos + static_cast<uint64_t>(st.t - st.a)
                        : st.tpos - 1);
                return;
            }
            st.phase = st.resume;
            continue;
          }
        }
    }
}

/** Fold this round's extension result, if `st` requested one, back
 *  into `st`. */
void
consumeResult(State &st, int floor,
              const std::vector<FmdExtendRequest> &requests)
{
    if (st.phase == Phase::Backward) {
        const FmdInterval &next = requests[st.req].in;
        if (next.empty()) {
            endBackward(st, floor);
        } else {
            st.iv = next;
            --st.a;
        }
    } else if (st.phase == Phase::Forward) {
        const FmdInterval &next = requests[st.req].in;
        if (next.empty()) {
            endForward(st);
        } else {
            st.iv = next;
            ++st.t;
        }
    }
}

} // namespace

void
collectSmemsInto(const FmdIndex &index, const Sequence &query,
                 int min_seed_len, std::vector<Smem> &out)
{
    out.clear();
    const int len = static_cast<int>(query.size());
    const int floor = std::max(1, min_seed_len);
    for (int e = floor; e <= len;) {
        // Backward: the longest match [a, e) that occurs, on the BWT
        // while it has several occurrences, then on the text. A unique
        // match is located before its first text step.
        FmdInterval iv = index.init(query[e - 1]);
        uint64_t tpos = kNoTextPos;
        int a = iv.empty() ? e : e - 1;
        Base c;
        while (iv.s > 1 && (c = baseBefore(query, a)) < kNumBases) {
            const FmdInterval next = index.extend(iv, c, true);
            if (next.empty())
                break;
            iv = next;
            --a;
        }
        if (iv.s == 1 && baseBefore(query, a) < kNumBases) {
            tpos = locateUnique(index, iv);
            while ((c = baseBefore(query, a)) < kNumBases &&
                   textExtends(index, tpos - 1, c)) {
                --tpos;
                --a;
            }
        }
        if (e - a < floor) {
            e = a + floor; // no match of floor bases ends before a + floor
            continue;
        }

        // Forward: [a, e) grows to its right end t; [a, t) is an SMEM.
        int t = e;
        while (iv.s > 1 && (c = baseAt(query, t, len)) < kNumBases) {
            const FmdInterval next = index.extend(iv, c, false);
            if (next.empty())
                break;
            iv = next;
            ++t;
        }
        if (iv.s == 1) {
            if (tpos == kNoTextPos)
                tpos = locateUnique(index, iv);
            while ((c = baseAt(query, t, len)) < kNumBases &&
                   textExtends(index, tpos + static_cast<uint64_t>(t - a),
                               c))
                ++t;
        }
        appendSmem(out, a, t, iv, tpos);
        e = t + 1;
    }
}

std::vector<Smem>
collectSmems(const FmdIndex &index, const Sequence &query, int min_seed_len)
{
    std::vector<Smem> out;
    collectSmemsInto(index, query, min_seed_len, out);
    return out;
}

void
collectSmemsBatch(const FmdIndex &index, const Sequence *const *queries,
                  size_t n, int min_seed_len, SmemWorkspace &ws,
                  std::vector<std::vector<Smem>> &out)
{
    const int floor = std::max(1, min_seed_len);
    if (ws.states.size() < n)
        ws.states.resize(n);
    ws.active.clear();
    for (size_t r = 0; r < n; ++r) {
        State &st = ws.states[r];
        st.query = queries[r];
        st.out = &out[r];
        st.out->clear();
        st.len = static_cast<int>(queries[r]->size());
        st.e = floor;
        st.phase = Phase::NextCandidate;
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
            emitRequests(index, st, floor, ws.requests);
            if (st.phase != Phase::Done)
                ws.active[kept++] = r;
        }
        ws.active.resize(kept);
        if (ws.requests.empty())
            continue;
        index.extendBatch(ws.requests.data(), ws.requests.size());
        for (const uint32_t r : ws.active)
            consumeResult(ws.states[r], floor, ws.requests);
    }

    for (size_t r = 0; r < n; ++r) {
        ws.states[r].query = nullptr;
        ws.states[r].out = nullptr;
    }
}

} // namespace seedex

#include "fmindex/kmer_table.h"

#include <algorithm>

#include "fmindex/fmd_index.h"

namespace seedex {

KmerTable::KmerTable(const FmdIndex &index, int k) : k_(k)
{
    levels_.resize(static_cast<size_t>(k_) + 1);
    for (int l = 1; l <= k_; ++l)
        levels_[l].assign(size_t{1} << (2 * l), Entry{});

    // Level 1 is the seed of every search, verbatim (an absent base
    // keeps its k/l with s == 0).
    for (Base c = 0; c < kNumBases; ++c) {
        const FmdInterval iv = index.init(c);
        levels_[1][c] = {iv.k, iv.l, iv.s};
    }

    // Level order: one rank pair per present parent yields all four
    // children. A child appends base n at code bits (2l, 2l+1), so the
    // children of parents taken in ascending code order land in four
    // sequential streams, one per n. A dead parent has no children;
    // absent entries stay {0,0,0}.
    constexpr size_t kLookahead = 8;
    for (int l = 1; l < k_; ++l) {
        const std::vector<Entry> &parents = levels_[l];
        std::vector<Entry> &children = levels_[l + 1];
        const size_t n_parents = parents.size();
        for (size_t p = 0; p < n_parents; ++p) {
            if (p + kLookahead < n_parents) {
                const Entry &next = parents[p + kLookahead];
                if (next.s != 0)
                    index.prefetchExtend({next.k, next.l, next.s, 0},
                                         false);
            }
            const Entry &e = parents[p];
            if (e.s == 0)
                continue;
            FmdInterval out[kNumBases];
            index.extendAll({e.k, e.l, e.s, 0}, false, out);
            for (Base n = 0; n < kNumBases; ++n) {
                if (out[n].s != 0)
                    children[p + n * n_parents] = {out[n].k, out[n].l,
                                                   out[n].s};
            }
        }
    }
}

size_t
KmerTable::storageBytes() const
{
    size_t bytes = 0;
    for (const auto &level : levels_)
        bytes += level.size() * sizeof(Entry);
    return bytes;
}

int
KmerTable::defaultK(uint64_t ref_len)
{
    // Aim k ~ log4(reference) so expected interval sizes at depth k are
    // O(1) and the table stays a fraction of the index footprint.
    int k = 0;
    uint64_t span = 1;
    while (span < ref_len && k < 10) {
        span *= 4;
        ++k;
    }
    return std::clamp(k, 4, 10);
}

} // namespace seedex

#include "fmindex/fmd_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "fmindex/suffix_array.h"

namespace seedex {

namespace {

/** Complement in the shifted alphabet (1=A .. 4=T); $ maps to itself. */
inline uint8_t
compShifted(uint8_t c)
{
    return c == 0 ? 0 : static_cast<uint8_t>(5 - c);
}

constexpr uint64_t kIndexMagic = 0x53454544455846ULL; // "SEEDEXF"
constexpr uint32_t kIndexVersion = 1;
/** The stream's layout byte: the packed BWT. Indexes written with any
 *  other value (0: a byte-per-symbol BWT) must be rebuilt. */
constexpr uint8_t kPackedLayout = 1;

template <typename T>
bool
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
    return os.good();
}

template <typename T>
bool
readPod(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return is.good();
}

template <typename T, typename A>
bool
writeVec(std::ostream &os, const std::vector<T, A> &v)
{
    if (!writePod(os, static_cast<uint64_t>(v.size())))
        return false;
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    return os.good();
}

/** Read a saved array whose element count must be exactly `expected`;
 *  the count is checked before the vector is sized. */
template <typename T, typename A>
bool
readVec(std::istream &is, std::vector<T, A> &v, uint64_t expected)
{
    uint64_t n = 0;
    if (!readPod(is, n) || n != expected)
        return false;
    v.resize(n);
    is.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    return is.good();
}

/** Thread-local scratch of the lockstep locate walk. */
struct LocateScratch
{
    std::vector<uint64_t> j;
    std::vector<uint64_t> steps;
    /** Sample slot once the walk reached a sampled row, else
     *  FmdIndex::kUnsampled. */
    std::vector<uint64_t> slot;
};

LocateScratch &
locateScratch()
{
    static thread_local LocateScratch scratch;
    return scratch;
}

} // namespace

FmdThreadCounters &
FmdIndex::threadCounters()
{
    static thread_local FmdThreadCounters counters;
    return counters;
}

FmdIndex::FmdIndex(const Sequence &reference)
{
    ref_len_ = reference.size();
    if (ref_len_ == 0)
        throw std::runtime_error("FmdIndex: empty reference");
    text_ = PackedSequence::pack(reference);

    // Index text: forward strand then reverse complement, shifted to
    // 1..4 ($ = 0 is appended conceptually as the final sentinel).
    const uint64_t L = ref_len_;
    std::vector<uint8_t> text(2 * L);
    for (uint64_t i = 0; i < L; ++i) {
        const Base b = reference[i] < kNumBases ? reference[i] : kBaseA;
        text[i] = static_cast<uint8_t>(b + 1);
        text[2 * L - 1 - i] = static_cast<uint8_t>(complement(b) + 1);
    }
    text_len_ = 2 * L + 1;

    const std::vector<int32_t> sa = buildSuffixArray(text);

    // Full BWT including the sentinel row at rank 0 (suffix "$"). The
    // suffix array is sampled by *text position*: every rank whose
    // suffix starts at a multiple of kSaStep is marked, which bounds
    // any LF walk from an unmarked rank to < kSaStep steps.
    std::vector<uint8_t> bwt(text_len_);
    sa_mark_.assign((text_len_ + 63) / 64, 0);
    sa_samples_.clear();
    auto record = [&](uint64_t rank, uint64_t pos) {
        if (pos % kSaStep == 0) {
            sa_mark_[rank / 64] |= uint64_t{1} << (rank % 64);
            sa_samples_.push_back(static_cast<int32_t>(pos));
        }
    };
    bwt[0] = text[2 * L - 1];
    record(0, 2 * L); // the sentinel position
    for (uint64_t r = 0; r < 2 * L; ++r) {
        const uint64_t pos = static_cast<uint64_t>(sa[r]);
        const uint64_t rank = r + 1;
        bwt[rank] = pos == 0 ? 0 : text[pos - 1];
        if (pos == 0)
            primary_ = rank;
        record(rank, pos);
    }

    // C array: counts_[c] = number of symbols < c.
    uint64_t hist[5] = {};
    for (uint8_t c : bwt)
        ++hist[c];
    counts_[0] = 0;
    for (int c = 1; c <= 5; ++c)
        counts_[c] = counts_[c - 1] + hist[c - 1];

    bwt_ = PackedBwt(bwt);
    // Construction records one sample per mark, so this cannot fail.
    deriveRankDirectory();
}

bool
FmdIndex::deriveRankDirectory()
{
    sa_mark_rank_.resize(sa_mark_.size());
    uint64_t marked = 0;
    for (size_t w = 0; w < sa_mark_.size(); ++w) {
        sa_mark_rank_[w] = static_cast<uint32_t>(marked);
        marked += static_cast<uint64_t>(std::popcount(sa_mark_[w]));
    }
    return marked == sa_samples_.size();
}

bool
FmdIndex::saMarked(uint64_t rank) const
{
    return (sa_mark_[rank / 64] >> (rank % 64)) & 1;
}

uint64_t
FmdIndex::saSampleSlot(uint64_t rank) const
{
    const uint64_t below = sa_mark_[rank / 64] &
        ((uint64_t{1} << (rank % 64)) - 1);
    return sa_mark_rank_[rank / 64] +
           static_cast<uint64_t>(std::popcount(below));
}

uint64_t
FmdIndex::lf(uint64_t j) const
{
    // c == 0 only at the primary row (suffix position 0), which is
    // always marked; no locate walk passes through it.
    const uint8_t c = bwt_.symbolAt(j);
    ++threadCounters().occ_calls;
    return counts_[c] + bwt_.rank(c, j);
}

uint64_t
FmdIndex::locateStep(uint64_t &row) const
{
    if (saMarked(row)) {
        const uint64_t slot = saSampleSlot(row);
        __builtin_prefetch(&sa_samples_[slot], 0, 3);
        return slot;
    }
    row = lf(row);
    prefetchLocate(row);
    return kUnsampled;
}

void
FmdIndex::prefetchLocate(uint64_t row) const
{
    bwt_.prefetch(row);
    __builtin_prefetch(&sa_mark_[row / 64], 0, 3);
    __builtin_prefetch(&sa_mark_rank_[row / 64], 0, 3);
}

FmdInterval
FmdIndex::init(Base c) const
{
    if (c >= kNumBases)
        return {};
    const uint8_t sc = static_cast<uint8_t>(c + 1);
    const uint8_t rc = compShifted(sc);
    FmdInterval iv;
    iv.k = counts_[sc];
    iv.l = counts_[rc];
    iv.s = counts_[sc + 1] - counts_[sc];
    return iv;
}

void
FmdIndex::rankPair(uint64_t lo, uint64_t s, uint64_t tk[5],
                   uint64_t tl[5]) const
{
    threadCounters().occ_calls += 2;
    bwt_.rankAllPair(lo, lo + s, tk, tl);
}

FmdInterval
FmdIndex::childFromRanks(const FmdInterval &in, const uint64_t tk[5],
                         const uint64_t tl[5], uint8_t sc) const
{
    uint64_t size[5];
    for (int b = 0; b < 5; ++b)
        size[b] = tl[b] - tk[b];
    // New l values accumulate in complement order: $, T, G, C, A.
    uint64_t l_new[5];
    l_new[4] = in.l + size[0];              // T after the sentinel block
    l_new[3] = l_new[4] + size[4];          // G after T
    l_new[2] = l_new[3] + size[3];          // C after G
    l_new[1] = l_new[2] + size[2];          // A after C
    l_new[0] = in.l;                        // unused ($)
    FmdInterval out;
    out.k = counts_[sc] + tk[sc];
    out.l = l_new[sc];
    out.s = size[sc];
    out.info = in.info;
    return out;
}

FmdInterval
FmdIndex::extend(const FmdInterval &in, Base c, bool back) const
{
    if (c >= kNumBases || in.empty())
        return {};
    if (!back) {
        // Forward extension: backward-extend the reverse-complement view.
        FmdInterval swapped{in.l, in.k, in.s, in.info};
        FmdInterval out = extend(swapped, complement(c), true);
        return {out.l, out.k, out.s, in.info};
    }
    uint64_t tk[5], tl[5];
    rankPair(in.k, in.s, tk, tl);
    return childFromRanks(in, tk, tl, static_cast<uint8_t>(c + 1));
}

void
FmdIndex::prefetchExtend(const FmdInterval &in, bool back) const
{
    // A backward extension ranks [k, k+s); a forward one ranks the same
    // span on the reverse-complement side, [l, l+s).
    const uint64_t lo = back ? in.k : in.l;
    bwt_.prefetch(lo);
    bwt_.prefetch(lo + in.s);
}

void
FmdIndex::extendBatch(FmdExtendRequest *requests, size_t n) const
{
    // Single fused pass: request r+kLookahead's occ blocks are hinted
    // while request r computes, so every line is in flight kLookahead
    // extensions ahead of its use without paying a second sweep over
    // the request array.
    constexpr size_t kLookahead = 8;
    const size_t warm = n < kLookahead ? n : kLookahead;
    for (size_t r = 0; r < warm; ++r) {
        const FmdExtendRequest &req = requests[r];
        if (req.c < kNumBases && !req.in.empty())
            prefetchExtend(req.in, req.back);
    }
    for (size_t r = 0; r < n; ++r) {
        if (r + kLookahead < n) {
            const FmdExtendRequest &next = requests[r + kLookahead];
            if (next.c < kNumBases && !next.in.empty())
                prefetchExtend(next.in, next.back);
        }
        requests[r].in = extend(requests[r].in, requests[r].c,
                                requests[r].back);
    }
}

uint64_t
FmdIndex::suffixToText(uint64_t rank) const
{
    // Position-sampled SA: walk LF until a marked rank; each step moves
    // the suffix start one position left, so a marked position (a
    // multiple of kSaStep) is hit in < kSaStep steps — asserted, not
    // hoped for.
    uint64_t steps = 0;
    uint64_t slot;
    while ((slot = locateStep(rank)) == kUnsampled) {
        ++steps;
        assert(steps < kSaStep && "locate walk exceeded kSaStep");
    }
    return sampleAt(slot) + steps;
}

void
FmdIndex::locateInto(const FmdInterval &interval, size_t max_hits,
                     size_t pattern_len, std::vector<FmdHit> &hits) const
{
    const uint64_t n = std::min<uint64_t>(interval.s, max_hits);
    if (n == 0)
        return;
    if (n == 1) {
        hits.push_back(hitAt(suffixToText(interval.k), pattern_len));
        return;
    }

    // Lockstep walk of all n suffix resolutions: every round advances
    // each unresolved walker one locateStep, which prefetches what its
    // next step reads, so the n walks' cache misses overlap. The
    // samples are read only once every walk has ended.
    LocateScratch &sc = locateScratch();
    sc.j.resize(n);
    sc.steps.resize(n);
    sc.slot.resize(n);
    for (uint64_t r = 0; r < n; ++r) {
        sc.j[r] = interval.k + r;
        sc.steps[r] = 0;
        sc.slot[r] = kUnsampled;
        prefetchLocate(sc.j[r]);
    }
    uint64_t remaining = n;
    while (remaining > 0) {
        for (uint64_t r = 0; r < n; ++r) {
            if (sc.slot[r] != kUnsampled)
                continue;
            sc.slot[r] = locateStep(sc.j[r]);
            if (sc.slot[r] != kUnsampled) {
                --remaining;
                continue;
            }
            ++sc.steps[r];
            assert(sc.steps[r] < kSaStep && "locate walk exceeded kSaStep");
        }
    }
    for (uint64_t r = 0; r < n; ++r)
        hits.push_back(
            hitAt(sampleAt(sc.slot[r]) + sc.steps[r], pattern_len));
}

std::vector<FmdHit>
FmdIndex::locate(const FmdInterval &interval, size_t max_hits,
                 size_t pattern_len) const
{
    std::vector<FmdHit> hits;
    hits.reserve(std::min<uint64_t>(interval.s, max_hits));
    locateInto(interval, max_hits, pattern_len, hits);
    return hits;
}

FmdInterval
FmdIndex::match(const Sequence &pattern) const
{
    if (pattern.empty())
        return {};
    FmdInterval iv = init(pattern[pattern.size() - 1]);
    for (size_t i = pattern.size() - 1; i-- > 0;) {
        iv = extend(iv, pattern[i], true);
        if (iv.empty())
            return {};
    }
    return iv;
}

size_t
FmdIndex::storageBytes() const
{
    return text_.storageBytes() + bwt_.storageBytes() +
        sa_mark_.size() * sizeof(uint64_t) +
        sa_mark_rank_.size() * sizeof(uint32_t) +
        sa_samples_.size() * sizeof(int32_t);
}

bool
FmdIndex::save(std::ostream &os) const
{
    bool ok = writePod(os, kIndexMagic) && writePod(os, kIndexVersion) &&
        writePod(os, kPackedLayout) && writePod(os, ref_len_) &&
        writePod(os, text_len_) && writePod(os, primary_);
    for (uint64_t c : counts_)
        ok = ok && writePod(os, c);
    return ok && writeVec(os, sa_mark_) && writeVec(os, sa_samples_) &&
        writeVec(os, bwt_.blocks_) && writeVec(os, bwt_.exceptions_) &&
        writePod(os, bwt_.size_);
}

std::optional<FmdIndex::Stored>
FmdIndex::read(std::istream &is, uint64_t ref_len)
{
    uint64_t magic = 0;
    uint32_t version = 0;
    uint8_t layout = 0;
    std::unique_ptr<FmdIndex> idx(new FmdIndex());
    bool ok = readPod(is, magic) && magic == kIndexMagic &&
        readPod(is, version) && version == kIndexVersion &&
        readPod(is, layout) && layout == kPackedLayout &&
        readPod(is, idx->ref_len_) && readPod(is, idx->text_len_) &&
        readPod(is, idx->primary_);
    const uint64_t T = 2 * ref_len + 1;
    if (!ok || idx->ref_len_ != ref_len || idx->text_len_ != T ||
        idx->primary_ >= T)
        return std::nullopt;
    for (uint64_t &c : idx->counts_)
        ok = ok && readPod(is, c);
    // counts_ is a cumulative histogram of the T BWT symbols.
    ok = ok && idx->counts_[0] == 0 && idx->counts_[5] == T &&
        std::is_sorted(std::begin(idx->counts_), std::end(idx->counts_));
    // Every array's count must be the one T implies (see save()).
    PackedBwt &p = idx->bwt_;
    ok = ok && readVec(is, idx->sa_mark_, (T + 63) / 64) &&
        readVec(is, idx->sa_samples_, (T - 1) / kSaStep + 1) &&
        readVec(is, p.blocks_, T / PackedBwt::kBlockSymbols + 1) &&
        readVec(is, p.exceptions_, 1) && readPod(is, p.size_);
    // The one exception is the sentinel, at the primary row.
    if (!ok || p.size_ != T || p.exceptions_[0] != idx->primary_)
        return std::nullopt;
    p.first_exception_ = p.exceptions_[0];
    return Stored(std::move(idx));
}

std::unique_ptr<FmdIndex>
FmdIndex::build(Stored stored, const Sequence &reference)
{
    std::unique_ptr<FmdIndex> idx = std::move(stored.index_);
    if (!idx || reference.size() != idx->ref_len_)
        return nullptr;
    idx->text_ = PackedSequence::pack(reference);
    if (!idx->deriveRankDirectory())
        return nullptr;
    return idx;
}

std::unique_ptr<FmdIndex>
FmdIndex::load(std::istream &is, const Sequence &reference)
{
    std::optional<Stored> stored = read(is, reference.size());
    if (!stored)
        return nullptr;
    return build(std::move(*stored), reference);
}

} // namespace seedex

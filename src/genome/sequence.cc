#include "genome/sequence.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace seedex {

Sequence
Sequence::fromString(std::string_view text)
{
    std::vector<Base> bases;
    bases.reserve(text.size());
    for (char c : text)
        bases.push_back(baseFromChar(c));
    return Sequence(std::move(bases));
}

std::string
Sequence::toString() const
{
    std::string out;
    out.reserve(bases_.size());
    for (Base b : bases_)
        out.push_back(charFromBase(b));
    return out;
}

Sequence
Sequence::slice(size_t pos, size_t len) const
{
    if (pos >= bases_.size())
        return {};
    len = std::min(len, bases_.size() - pos);
    return Sequence(std::vector<Base>(bases_.begin() + pos,
                                      bases_.begin() + pos + len));
}

Sequence
Sequence::reverseComplement() const
{
    std::vector<Base> out(bases_.size());
    for (size_t i = 0; i < bases_.size(); ++i)
        out[bases_.size() - 1 - i] = complement(bases_[i]);
    return Sequence(std::move(out));
}

void
Sequence::reverseComplementInto(Sequence &out) const
{
    out.bases_.resize(bases_.size());
    for (size_t i = 0; i < bases_.size(); ++i)
        out.bases_[bases_.size() - 1 - i] = complement(bases_[i]);
}

void
Sequence::append(const Sequence &other)
{
    bases_.insert(bases_.end(), other.bases_.begin(), other.bases_.end());
}

namespace {

/**
 * Gather 8 one-byte codes into 16 bits (base j at bits 2j, 2j+1).
 * `b & 3` maps N (4) to A, as index construction does. The codes are
 * loaded as one little-endian word, so the loop never reads a byte
 * through a pointer that may alias the word store.
 */
inline uint64_t
gather8(const Base *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w &= 0x0303030303030303ULL;
    w = (w | (w >> 6)) & 0x000F000F000F000FULL;
    w = (w | (w >> 12)) & 0x000000FF000000FFULL;
    return (w | (w >> 24)) & 0xFFFFULL;
}

} // namespace

PackedSequence
PackedSequence::pack(const Sequence &seq)
{
    static_assert(std::endian::native == std::endian::little,
                  "gather8 assumes little-endian words");
    PackedSequence packed;
    const size_t n = seq.size();
    packed.size_ = n;
    packed.words_.reserve((n + 31) / 32);
    const Base *codes = seq.data();
    size_t i = 0;
    for (; i + 32 <= n; i += 32)
        packed.words_.push_back(
            gather8(codes + i) | gather8(codes + i + 8) << 16 |
            gather8(codes + i + 16) << 32 | gather8(codes + i + 24) << 48);
    if (i < n) {
        uint64_t tail = 0;
        for (size_t j = 0; i + j < n; ++j)
            tail |= static_cast<uint64_t>(codes[i + j] & 3) << (2 * j);
        packed.words_.push_back(tail);
    }
    return packed;
}

Sequence
PackedSequence::unpack(size_t pos, size_t len) const
{
    std::vector<Base> out;
    if (pos < size_) {
        len = std::min(len, size_ - pos);
        out.reserve(len);
        for (size_t i = 0; i < len; ++i)
            out.push_back((*this)[pos + i]);
    }
    return Sequence(std::move(out));
}

} // namespace seedex

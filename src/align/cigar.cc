#include "align/cigar.h"

#include <cctype>
#include <stdexcept>

#include "util/decimal.h"

namespace seedex {

void
Cigar::appendTo(std::string &out) const
{
    if (ops_.empty()) {
        out += '*';
        return;
    }
    for (const auto &op : ops_) {
        appendDecimal(out, op.len);
        out += op.op;
    }
}

std::string
Cigar::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

Cigar
Cigar::fromString(const std::string &text)
{
    Cigar cigar;
    if (text == "*")
        return cigar;
    size_t i = 0;
    while (i < text.size()) {
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            throw std::runtime_error("CIGAR: expected digit in " + text);
        int len = 0;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i])))
            len = len * 10 + (text[i++] - '0');
        if (i >= text.size())
            throw std::runtime_error("CIGAR: missing op in " + text);
        const char op = text[i++];
        if (op != 'M' && op != 'I' && op != 'D' && op != 'S')
            throw std::runtime_error("CIGAR: bad op in " + text);
        cigar.push(op, len);
    }
    return cigar;
}

int
Cigar::queryLength() const
{
    int n = 0;
    for (const auto &op : ops_)
        if (op.op == 'M' || op.op == 'I' || op.op == 'S')
            n += op.len;
    return n;
}

int
Cigar::referenceLength() const
{
    int n = 0;
    for (const auto &op : ops_)
        if (op.op == 'M' || op.op == 'D')
            n += op.len;
    return n;
}

Cigar
Cigar::reversed() const
{
    Cigar out;
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it)
        out.push(it->op, it->len);
    return out;
}

int
scoreCigar(const Cigar &cigar, const Sequence &query, const Sequence &target,
           const Scoring &scoring)
{
    int score = 0;
    size_t qi = 0, ti = 0;
    for (const auto &op : cigar.ops()) {
        switch (op.op) {
          case 'M':
            for (int k = 0; k < op.len; ++k)
                score += scoring.score(target[ti++], query[qi++]);
            break;
          case 'I':
            score -= scoring.gap_open_ins +
                     scoring.gap_extend_ins * op.len;
            qi += static_cast<size_t>(op.len);
            break;
          case 'D':
            score -= scoring.gap_open_del +
                     scoring.gap_extend_del * op.len;
            ti += static_cast<size_t>(op.len);
            break;
          case 'S':
            qi += static_cast<size_t>(op.len);
            break;
          default:
            throw std::runtime_error("scoreCigar: bad op");
        }
    }
    if (qi > query.size() || ti > target.size())
        throw std::runtime_error("scoreCigar: trace overruns sequences");
    return score;
}

} // namespace seedex

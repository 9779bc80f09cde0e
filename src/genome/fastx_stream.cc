#include "genome/fastx_stream.h"

#include <istream>
#include <stdexcept>

#include "util/table.h"

namespace seedex {

namespace {

/** Clip a line for inclusion in a diagnostic. */
std::string
excerpt(const std::string &line)
{
    constexpr size_t kMax = 40;
    if (line.size() <= kMax)
        return line;
    return line.substr(0, kMax) + "...";
}

} // namespace

// ---------------------------------------------------------- LineScanner

LineScanner::LineScanner(std::istream &in, std::string origin,
                         uint64_t start_offset)
    : in_(in), origin_(std::move(origin)), offset_(start_offset)
{
    buffer_.reserve(kChunkBytes);
}

bool
LineScanner::refill()
{
    if (eof_)
        return false;
    // Compact the consumed prefix instead of growing without bound.
    if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    const size_t old = buffer_.size();
    buffer_.resize(old + kChunkBytes);
    in_.read(buffer_.data() + old,
             static_cast<std::streamsize>(kChunkBytes));
    const size_t got = static_cast<size_t>(in_.gcount());
    buffer_.resize(old + got);
    if (got == 0)
        eof_ = true;
    return got > 0;
}

bool
LineScanner::next(std::string &line)
{
    size_t nl;
    while ((nl = buffer_.find('\n', pos_)) == std::string::npos) {
        if (!refill()) {
            // Final line without a terminator.
            if (pos_ >= buffer_.size())
                return false;
            nl = buffer_.size();
            break;
        }
    }
    size_t end = nl;
    if (end > pos_ && buffer_[end - 1] == '\r')
        --end; // CRLF
    line.assign(buffer_, pos_, end - pos_);
    line_offset_ = offset_;
    const size_t consumed =
        (nl < buffer_.size() ? nl + 1 : buffer_.size()) - pos_;
    offset_ += consumed;
    pos_ += consumed;
    ++line_number_;
    return true;
}

// ---------------------------------------------------------- FastaReader

FastaReader::FastaReader(const std::string &path)
    : file_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      scanner_(*file_, path)
{
    if (!*file_)
        throw std::runtime_error("cannot open FASTA file: " + path);
}

FastaReader::FastaReader(std::istream &in, std::string origin,
                         uint64_t start_offset)
    : scanner_(in, std::move(origin), start_offset)
{}

void
FastaReader::fail(const std::string &what) const
{
    throw std::runtime_error(strprintf(
        "%s: FASTA record %llu (line %llu): %s", scanner_.origin().c_str(),
        static_cast<unsigned long long>(records_ + 1),
        static_cast<unsigned long long>(scanner_.lineNumber()),
        what.c_str()));
}

bool
FastaReader::next(FastaRecord &out)
{
    if (done_)
        return false;
    // Find this record's header (skipping blank separator lines).
    while (!have_pending_) {
        if (!scanner_.next(line_)) {
            done_ = true;
            return false;
        }
        if (line_.empty())
            continue;
        if (line_[0] != '>')
            fail("sequence before header: \"" + excerpt(line_) + "\"");
        have_pending_ = true;
    }
    out.name.assign(line_, 1, line_.size() - 1);
    if (out.name.empty())
        fail("empty contig name ('>' with no name)");
    if (!seen_names_.insert(out.name).second)
        fail("duplicate contig name \"" + out.name +
             "\" (would collide as an @SQ SN: key)");
    have_pending_ = false;

    // Accumulate body lines until the next header or EOF.
    std::string body;
    for (;;) {
        if (!scanner_.next(line_)) {
            done_ = true;
            break;
        }
        if (line_.empty())
            continue;
        if (line_[0] == '>') {
            have_pending_ = true;
            break;
        }
        body += line_;
    }
    out.seq = Sequence::fromString(body);
    ++records_;
    return true;
}

// ---------------------------------------------------------- FastqReader

FastqReader::FastqReader(const std::string &path)
    : file_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      scanner_(*file_, path)
{
    if (!*file_)
        throw std::runtime_error("cannot open FASTQ file: " + path);
}

FastqReader::FastqReader(std::istream &in, std::string origin,
                         uint64_t start_offset)
    : scanner_(in, std::move(origin), start_offset)
{}

void
FastqReader::fail(const std::string &what) const
{
    throw std::runtime_error(strprintf(
        "%s: FASTQ record %llu (line %llu): %s", scanner_.origin().c_str(),
        static_cast<unsigned long long>(records_ + 1),
        static_cast<unsigned long long>(scanner_.lineNumber()),
        what.c_str()));
}

void
FastqReader::requireLine(const char *slot)
{
    if (!scanner_.next(line_))
        fail(std::string("truncated record: missing ") + slot + " line");
    if (line_.empty())
        fail(std::string("blank line where the ") + slot +
             " line was expected");
}

bool
FastqReader::next(FastqRecord &out)
{
    // Header slot: blank lines between records are tolerated.
    for (;;) {
        if (!scanner_.next(line_))
            return false;
        if (!line_.empty())
            break;
    }
    if (line_[0] != '@')
        fail("expected '@' header, got \"" + excerpt(line_) + "\"");
    out.name.assign(line_, 1, line_.size() - 1);

    requireLine("bases");
    bases_ = line_;

    requireLine("'+' separator");
    if (line_[0] != '+')
        fail("expected '+' separator, got \"" + excerpt(line_) + "\"");

    requireLine("quality");
    if (line_.size() != bases_.size())
        fail(strprintf("quality length %zu does not match read length %zu",
                       line_.size(), bases_.size()));
    out.qual = line_;
    out.seq = Sequence::fromString(bases_);
    ++records_;
    return true;
}

// ---- PairedReadSource ---------------------------------------------------

PairedReadSource::PairedReadSource(const std::string &r1_path,
                                   const std::string &r2_path)
    : r1_(std::make_unique<FastqReader>(r1_path)),
      r2_(std::make_unique<FastqReader>(r2_path)), origin1_(r1_path),
      origin2_(r2_path)
{}

PairedReadSource::PairedReadSource(const std::string &path)
    : r1_(std::make_unique<FastqReader>(path)), origin1_(path)
{}

PairedReadSource::PairedReadSource(std::istream &r1, std::istream &r2,
                                   std::string origin1, std::string origin2)
    : r1_(std::make_unique<FastqReader>(r1, origin1)),
      r2_(std::make_unique<FastqReader>(r2, origin2)),
      origin1_(std::move(origin1)), origin2_(std::move(origin2))
{}

PairedReadSource::PairedReadSource(std::istream &in, std::string origin)
    : r1_(std::make_unique<FastqReader>(in, origin)),
      origin1_(std::move(origin))
{}

std::string
PairedReadSource::canonicalName(const std::string &header)
{
    std::string name(firstWord(header));
    if (name.size() > 2 && name[name.size() - 2] == '/' &&
        (name.back() == '1' || name.back() == '2'))
        name.resize(name.size() - 2);
    return name;
}

bool
PairedReadSource::nextZipped(PairedRecord &out)
{
    const bool have1 = r1_->next(rec1_);
    const bool have2 = r2_->next(rec2_);
    if (!have1 && !have2)
        return false;
    if (have1 != have2) {
        // One stream ran dry: name the short one, the long one, and the
        // pair ordinal where the zip broke.
        const std::string &longer = have1 ? origin1_ : origin2_;
        const std::string &shorter = have1 ? origin2_ : origin1_;
        const FastqRecord &rec = have1 ? rec1_ : rec2_;
        throw std::runtime_error(strprintf(
            "%s: paired input truncated at pair %llu: %s has record "
            "'%s' but %s ended after %llu record(s)",
            shorter.c_str(),
            static_cast<unsigned long long>(pairs_ + 1), longer.c_str(),
            canonicalName(rec.name).c_str(), shorter.c_str(),
            static_cast<unsigned long long>(have1 ? r2_->recordsRead()
                                                  : r1_->recordsRead())));
    }
    out.name = canonicalName(rec1_.name);
    if (out.name != canonicalName(rec2_.name))
        throw std::runtime_error(strprintf(
            "%s: mate-name mismatch at pair %llu: '%s' (%s record %llu) "
            "vs '%s' (%s record %llu)",
            origin1_.c_str(), static_cast<unsigned long long>(pairs_ + 1),
            canonicalName(rec1_.name).c_str(), origin1_.c_str(),
            static_cast<unsigned long long>(r1_->recordsRead()),
            canonicalName(rec2_.name).c_str(), origin2_.c_str(),
            static_cast<unsigned long long>(r2_->recordsRead())));
    out.first = std::move(rec1_.seq);
    out.second = std::move(rec2_.seq);
    ++pairs_;
    return true;
}

bool
PairedReadSource::nextInterleaved(PairedRecord &out)
{
    if (!r1_->next(rec1_))
        return false;
    if (!r1_->next(rec2_))
        throw std::runtime_error(strprintf(
            "%s: interleaved input truncated at pair %llu: record %llu "
            "('%s') has no mate (odd record count)",
            origin1_.c_str(), static_cast<unsigned long long>(pairs_ + 1),
            static_cast<unsigned long long>(r1_->recordsRead()),
            canonicalName(rec1_.name).c_str()));
    out.name = canonicalName(rec1_.name);
    if (out.name != canonicalName(rec2_.name))
        throw std::runtime_error(strprintf(
            "%s: mate-name mismatch at pair %llu: '%s' (record %llu) vs "
            "'%s' (record %llu)",
            origin1_.c_str(), static_cast<unsigned long long>(pairs_ + 1),
            canonicalName(rec1_.name).c_str(),
            static_cast<unsigned long long>(r1_->recordsRead() - 1),
            canonicalName(rec2_.name).c_str(),
            static_cast<unsigned long long>(r1_->recordsRead())));
    out.first = std::move(rec1_.seq);
    out.second = std::move(rec2_.seq);
    ++pairs_;
    return true;
}

bool
PairedReadSource::next(PairedRecord &out)
{
    return r2_ != nullptr ? nextZipped(out) : nextInterleaved(out);
}

} // namespace seedex

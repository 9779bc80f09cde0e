#ifndef SEEDEX_GENOME_FASTX_STREAM_H
#define SEEDEX_GENOME_FASTX_STREAM_H

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>

#include "genome/fasta.h"

namespace seedex {

/**
 * First whitespace-delimited word of a FASTA/FASTQ header: everything
 * before the first space or tab (the whole header when there is none).
 * SAM names are this word, because the spec allows them no whitespace:
 * a contig's @SQ SN, a single-end read's QNAME, and a pair's QNAME
 * before its mate suffix is stripped.
 */
inline std::string_view
firstWord(std::string_view header)
{
    return header.substr(0, header.find_first_of(" \t"));
}

/**
 * Chunked line scanner: the shared substrate of the streaming FASTA and
 * FASTQ readers. Reads the underlying stream through a fixed-size chunk
 * buffer (never the whole file), tolerates CRLF line endings, and keeps
 * 64-bit line/byte accounting so diagnostics stay correct past the 4 GiB
 * mark of a large read file.
 *
 * Memory bound: one chunk (kChunkBytes) plus the longest single line.
 */
class LineScanner
{
  public:
    static constexpr size_t kChunkBytes = 256 * 1024;

    /**
     * @param in Source stream (not owned; must outlive the scanner).
     * @param origin Name used in diagnostics (file path or "<stream>").
     * @param start_offset Byte offset the stream is assumed to start at
     *   (non-zero when resuming mid-file; keeps reported offsets
     *   absolute, exercised by the >4 GiB arithmetic tests).
     */
    explicit LineScanner(std::istream &in, std::string origin = "<stream>",
                         uint64_t start_offset = 0);

    /** Next line without its terminator (\n or \r\n); false at EOF. */
    bool next(std::string &line);

    /** 1-based number of the last line returned by next(). */
    uint64_t lineNumber() const { return line_number_; }

    /** Absolute byte offset of the first byte of the last line. */
    uint64_t lineOffset() const { return line_offset_; }

    /** Absolute byte offset of the next unread byte. */
    uint64_t byteOffset() const { return offset_; }

    const std::string &origin() const { return origin_; }

  private:
    bool refill();

    std::istream &in_;
    std::string origin_;
    std::string buffer_;
    size_t pos_ = 0;
    uint64_t offset_ = 0;
    uint64_t line_offset_ = 0;
    uint64_t line_number_ = 0;
    bool eof_ = false;
};

/**
 * Streaming FASTA reader: one record in memory at a time (a record is a
 * whole contig — the minimum unit the indexer needs). Validates what the
 * slurp parser historically let through: an empty name after '>' and
 * duplicate contig names (which would collide as `@SQ SN:` keys) both
 * throw, with the record ordinal and line number in the message.
 */
class FastaReader
{
  public:
    /** Open `path`; throws std::runtime_error if unopenable. */
    explicit FastaReader(const std::string &path);

    /** Read from a caller-owned stream (kept alive by the caller). */
    explicit FastaReader(std::istream &in,
                         std::string origin = "<stream>",
                         uint64_t start_offset = 0);

    /**
     * Parse the next record into `out` (storage reused). Returns false
     * at clean EOF; throws std::runtime_error (with origin, record
     * ordinal, and line number) on malformed input.
     */
    bool next(FastaRecord &out);

    /** Records successfully returned so far. */
    uint64_t recordsRead() const { return records_; }

  private:
    [[noreturn]] void fail(const std::string &what) const;

    std::unique_ptr<std::ifstream> file_;
    LineScanner scanner_;
    std::string line_;
    bool have_pending_ = false; ///< line_ holds the next '>' header
    bool done_ = false;
    uint64_t records_ = 0;
    std::unordered_set<std::string> seen_names_;
};

/**
 * Streaming FASTQ reader: bounded memory (one 4-line record), CRLF
 * tolerant, record-indexed errors. Blank lines are skipped between
 * records (the header slot); a blank line inside a record — in the
 * bases, '+', or quality slot — is diagnosed with the record ordinal
 * and the offending line instead of silently desynchronizing the
 * 4-line frame (the historical readFastq bug).
 */
class FastqReader
{
  public:
    explicit FastqReader(const std::string &path);
    explicit FastqReader(std::istream &in,
                         std::string origin = "<stream>",
                         uint64_t start_offset = 0);

    /** Parse the next record into `out` (storage reused). Returns false
     *  at clean EOF; throws std::runtime_error on malformed input. */
    bool next(FastqRecord &out);

    uint64_t recordsRead() const { return records_; }

    /** Absolute byte offset of the next unread byte (64-bit safe). */
    uint64_t byteOffset() const { return scanner_.byteOffset(); }

  private:
    [[noreturn]] void fail(const std::string &what) const;
    /** Fetch the next line into line_; diagnose blank/EOF per slot. */
    void requireLine(const char *slot);

    std::unique_ptr<std::ifstream> file_;
    LineScanner scanner_;
    std::string line_;
    std::string bases_;
    uint64_t records_ = 0;
};

/** One read pair pulled from a PairedReadSource. */
struct PairedRecord
{
    /** Canonical pair name: the first word of the FASTQ header (see
     *  firstWord) with any trailing `/1` or `/2` mate suffix stripped —
     *  both mates must agree, and this is the QNAME both SAM records
     *  carry (the SAM pairing convention). */
    std::string name;
    Sequence first;
    Sequence second;
};

/**
 * Streaming paired-read supplier: zips two FASTQ streams (R1 + R2) or
 * deinterleaves a single stream whose consecutive records are mates.
 * Built on FastqReader, so memory stays bounded at one record per
 * stream and CRLF/blank-line handling is inherited. Every structural
 * problem — mate-name disagreement, unequal R1/R2 record counts, a
 * truncated second file, an odd interleaved record count — throws
 * std::runtime_error carrying the origin (file path) and the 1-based
 * pair/record ordinal, never desynchronizing silently.
 */
class PairedReadSource
{
  public:
    /** Two-file mode: record i of `r1_path` pairs with record i of
     *  `r2_path`. */
    PairedReadSource(const std::string &r1_path,
                     const std::string &r2_path);

    /** Interleaved mode: records 2i and 2i+1 of `path` are mates. */
    explicit PairedReadSource(const std::string &path);

    /** Stream variants (caller keeps the streams alive). */
    PairedReadSource(std::istream &r1, std::istream &r2,
                     std::string origin1 = "<stream:r1>",
                     std::string origin2 = "<stream:r2>");
    PairedReadSource(std::istream &in, std::string origin);

    /** Parse the next pair into `out` (storage reused). Returns false
     *  at clean EOF; throws std::runtime_error on malformed or
     *  mismatched input. */
    bool next(PairedRecord &out);

    /** Pairs successfully returned so far. */
    uint64_t pairsRead() const { return pairs_; }

    bool interleaved() const { return r2_ == nullptr; }

    /** Canonical pair name of one FASTQ header: its first word, minus
     *  a trailing "/1" or "/2" mate suffix. */
    static std::string canonicalName(const std::string &header);

  private:
    bool nextZipped(PairedRecord &out);
    bool nextInterleaved(PairedRecord &out);

    std::unique_ptr<std::ifstream> file1_;
    std::unique_ptr<std::ifstream> file2_;
    std::unique_ptr<FastqReader> r1_;
    std::unique_ptr<FastqReader> r2_; ///< null in interleaved mode
    std::string origin1_;
    std::string origin2_;
    FastqRecord rec1_;
    FastqRecord rec2_;
    uint64_t pairs_ = 0;
};

} // namespace seedex

#endif // SEEDEX_GENOME_FASTX_STREAM_H

#ifndef SEEDEX_FMINDEX_SDX_H
#define SEEDEX_FMINDEX_SDX_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmindex/fmd_index.h"
#include "genome/sequence.h"

namespace seedex {

/**
 * The `.sdx` on-disk index container (`seedex index` output):
 *
 *     [0..7]   magic "SEEDXSDX"
 *     payload  u32 format version
 *              u32 contig count
 *              per contig: u32 name length, name bytes, u64 length
 *              u64 reference length
 *              nibble-packed reference codes (2 bases/byte, N preserved)
 *              FmdIndex::save() stream
 *     [n-4..]  u32 CRC-32 of every preceding byte (magic included)
 *
 * The CRC footer is what makes the cache trustworthy: FmdIndex::read's
 * structural checks accept any bit-flip that keeps the size fields
 * consistent, so a silently corrupted index could misalign every read.
 * Here a single flipped payload byte fails the checksum and loadSdx
 * throws a clean "rebuild with `seedex index`" diagnostic instead.
 *
 * The reference sequence is stored alongside the index (the aligner
 * needs the text for extension and traceback, and the FM-index cannot
 * reproduce it exactly: construction collapses N to A). Nibble packing
 * keeps codes 0..4 intact at half a byte per base. The FM-index's own
 * 2-bit text (SMEM search compares unique matches against it) is not
 * stored a second time: loadSdx packs it from this decoded reference.
 */

/** One contig recorded in a `.sdx` container, in reference order. */
struct SdxContig
{
    std::string name;
    uint64_t length = 0;
};

/** A loaded `.sdx` container. */
struct SdxData
{
    uint32_t version = 0;
    std::vector<SdxContig> contigs;
    /** Concatenated reference (contigs in order, N preserved). */
    Sequence reference;
    std::unique_ptr<FmdIndex> index;
};

/** Raised on any `.sdx` read/write failure, with a diagnostic that names
 *  the file and, for corruption, says to rebuild with `seedex index`. */
class SdxError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Current container format version. */
inline constexpr uint32_t kSdxVersion = 1;

/** Write a container; throws SdxError on I/O failure. */
void saveSdx(const std::string &path, const std::vector<SdxContig> &contigs,
             const Sequence &reference, const FmdIndex &index);

/**
 * Read and verify a container in one front-to-back pass: each section
 * is read once, straight from the file into its final array, and every
 * byte goes through the CRC as it arrives. Each stored array's size is
 * checked against the reference length before it is allocated, and
 * nothing that indexes memory with payload values (the suffix-array
 * rank directory) is built until the footer has matched
 * (FmdIndex::read, then the footer, then FmdIndex::build). The index
 * text is packed from the decoded reference. On a structural failure
 * the rest of the payload is still checksummed first, so a corrupt file
 * reports its checksum mismatch.
 * Throws SdxError on any failure.
 */
SdxData loadSdx(const std::string &path);

/** Cheap sniff: does `path` start with the `.sdx` magic? (Lets the CLI
 *  accept either a prebuilt index or a plain FASTA reference.) */
bool isSdxFile(const std::string &path);

} // namespace seedex

#endif // SEEDEX_FMINDEX_SDX_H

#ifndef SEEDEX_UTIL_CRC32_H
#define SEEDEX_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace seedex {

/**
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum guarding the
 * `.sdx` index container. Incremental: feed chunks through update() and
 * read value() at the end, or use crc32() for a one-shot buffer. The
 * value of a stream does not depend on how it is split into chunks.
 *
 * update() folds 16 bytes per step through slice-by-16 tables (16 KiB,
 * built once), several times the throughput of the byte-at-a-time
 * loop; a tail shorter than 16 bytes goes byte by byte.
 */
class Crc32
{
  public:
    /** Fold `len` bytes into the running checksum. */
    void update(const void *data, size_t len);

    /** Final checksum of everything fed so far. */
    uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of a buffer. */
uint32_t crc32(const void *data, size_t len);

} // namespace seedex

#endif // SEEDEX_UTIL_CRC32_H

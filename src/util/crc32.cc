#include "util/crc32.h"

#include <array>

namespace seedex {

namespace {

/** Bytes folded per step of the sliced loop. */
constexpr size_t kSlices = 16;

/**
 * Slice-by-16 tables: t[0] is the standard reflected-polynomial byte
 * table, and t[j][b] is the CRC contribution of byte b followed by j
 * zero bytes. Sixteen independent lookups then fold a 16-byte block in
 * one step instead of a 16-long dependent chain.
 */
struct CrcTables
{
    std::array<std::array<uint32_t, 256>, kSlices> t{};

    CrcTables()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (size_t j = 1; j < kSlices; ++j)
            for (uint32_t i = 0; i < 256; ++i)
                t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
    }
};

const CrcTables &
crcTables()
{
    static const CrcTables tables;
    return tables;
}

/** Little-endian 32-bit load (one mov on x86; byte order explicit so
 *  the value is the same on any host). */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

void
Crc32::update(const void *data, size_t len)
{
    const auto &t = crcTables().t;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = state_;
    for (; len >= kSlices; len -= kSlices, p += kSlices) {
        const uint32_t w0 = loadLe32(p) ^ c;
        const uint32_t w1 = loadLe32(p + 4);
        const uint32_t w2 = loadLe32(p + 8);
        const uint32_t w3 = loadLe32(p + 12);
        c = t[15][w0 & 0xFF] ^ t[14][(w0 >> 8) & 0xFF] ^
            t[13][(w0 >> 16) & 0xFF] ^ t[12][w0 >> 24] ^
            t[11][w1 & 0xFF] ^ t[10][(w1 >> 8) & 0xFF] ^
            t[9][(w1 >> 16) & 0xFF] ^ t[8][w1 >> 24] ^
            t[7][w2 & 0xFF] ^ t[6][(w2 >> 8) & 0xFF] ^
            t[5][(w2 >> 16) & 0xFF] ^ t[4][w2 >> 24] ^
            t[3][w3 & 0xFF] ^ t[2][(w3 >> 8) & 0xFF] ^
            t[1][(w3 >> 16) & 0xFF] ^ t[0][w3 >> 24];
    }
    for (; len > 0; --len, ++p)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    state_ = c;
}

uint32_t
crc32(const void *data, size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace seedex

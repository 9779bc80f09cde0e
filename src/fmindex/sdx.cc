#include "fmindex/sdx.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <system_error>

#include "util/crc32.h"
#include "util/table.h"

namespace seedex {

namespace {

constexpr char kSdxMagic[8] = {'S', 'E', 'E', 'D', 'X', 'S', 'D', 'X'};
/** magic + version + contig count + ref length + CRC footer. */
constexpr size_t kSdxMinBytes = 8 + 4 + 4 + 8 + 4;

constexpr const char *kMalformedFm =
    "corrupt index (malformed FM-index payload, or its length does not "
    "match the stored reference)";

[[noreturn]] void
failCorrupt(const std::string &path, const std::string &what)
{
    throw SdxError(path + ": " + what +
                   "; rebuild with `seedex index`");
}

void
appendPod(std::string &out, const void *data, size_t len)
{
    out.append(static_cast<const char *>(data), len);
}

template <typename T>
void
appendPod(std::string &out, const T &v)
{
    appendPod(out, &v, sizeof(T));
}

/**
 * A structural defect found while parsing the payload. It is reported
 * (as "<what>; rebuild with `seedex index`") only after the rest of the
 * payload has been checksummed and the footer matched: a corrupt file
 * reports its checksum mismatch, whatever field the damage hit.
 */
class Malformed : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Input streambuf over the payload of a `.sdx` file: every byte before
 * its 4-byte footer, magic included. Every byte read from the file is
 * folded into the CRC as it arrives. Small reads are served from a
 * buffer; a read of at least a buffer's size goes straight from the
 * file into the caller's storage, in chunks that are checksummed while
 * they are still in cache.
 */
class ChecksummedFileBuf : public std::streambuf
{
  public:
    ChecksummedFileBuf(std::FILE *file, uint64_t payload_bytes)
        : file_(file), unread_(payload_bytes), buf_(kBufferBytes)
    {
        setg(buf_.data(), buf_.data(), buf_.data());
    }

    /** Payload bytes not yet handed out. */
    uint64_t
    remaining() const
    {
        return unread_ + static_cast<uint64_t>(egptr() - gptr());
    }

    /** Read and checksum whatever of the payload is still unread. */
    void
    drain()
    {
        setg(buf_.data(), buf_.data(), buf_.data());
        while (unread_ > 0 && !failed_)
            fill(buf_.data(), buf_.size());
    }

    /** CRC of every payload byte read so far. */
    uint32_t crc() const { return crc_.value(); }

    /**
     * The stored CRC, read after drain(). Returns false if any read of
     * the file fell short or failed.
     */
    bool
    readFooter(uint32_t &footer)
    {
        return !failed_ && unread_ == 0 &&
            std::fread(&footer, sizeof(footer), 1, file_) == 1;
    }

  protected:
    int_type
    underflow() override
    {
        if (gptr() == egptr()) {
            const size_t got = fill(buf_.data(), buf_.size());
            setg(buf_.data(), buf_.data(), buf_.data() + got);
            if (got == 0)
                return traits_type::eof();
        }
        return traits_type::to_int_type(*gptr());
    }

    std::streamsize
    xsgetn(char *s, std::streamsize n) override
    {
        std::streamsize done = 0;
        while (done < n) {
            const std::streamsize buffered = egptr() - gptr();
            if (buffered > 0) {
                const std::streamsize take = std::min(buffered, n - done);
                std::memcpy(s + done, gptr(), static_cast<size_t>(take));
                gbump(static_cast<int>(take));
                done += take;
            } else if (static_cast<size_t>(n - done) >= buf_.size()) {
                done += static_cast<std::streamsize>(
                    fill(s + done, static_cast<size_t>(n - done)));
                break;
            } else if (traits_type::eq_int_type(underflow(),
                                                traits_type::eof())) {
                break;
            }
        }
        return done;
    }

  private:
    static constexpr size_t kBufferBytes = size_t{64} << 10;
    /** Direct reads land and are checksummed this many bytes at a time
     *  (small enough to stay in L2 between the copy and the CRC). */
    static constexpr size_t kChunkBytes = size_t{256} << 10;

    /** Read up to `n` payload bytes into `dst`, checksumming them. */
    size_t
    fill(char *dst, size_t n)
    {
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(n, unread_));
        size_t got = 0;
        while (got < want) {
            const size_t chunk = std::min(want - got, kChunkBytes);
            const size_t r = std::fread(dst + got, 1, chunk, file_);
            crc_.update(dst + got, r);
            got += r;
            if (r < chunk) {
                failed_ = true; // the file shrank or a read failed
                break;
            }
        }
        unread_ -= got;
        return got;
    }

    std::FILE *file_;
    uint64_t unread_; ///< payload bytes not yet read from the file
    std::vector<char> buf_;
    Crc32 crc_;
    bool failed_ = false;
};

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/** Byte -> its two nibble-packed base codes (low nibble first), and
 *  whether either code is out of range. */
struct NibbleDecoder
{
    std::array<std::array<Base, 2>, 256> bases{};
    std::array<uint8_t, 256> invalid{};

    constexpr NibbleDecoder()
    {
        for (int b = 0; b < 256; ++b) {
            bases[b] = {static_cast<Base>(b & 0xF),
                        static_cast<Base>(b >> 4)};
            invalid[b] = (b & 0xF) > kBaseN || (b >> 4) > kBaseN;
        }
    }
};
inline constexpr NibbleDecoder kNibbles;

/** Decode `ref_len` nibble-packed bases from the payload, a chunk at a
 *  time. An invalid code is collected with OR and reported once. */
Sequence
readReference(std::istream &in, uint64_t ref_len)
{
    std::vector<Base> bases(ref_len);
    constexpr size_t kChunk = size_t{64} << 10;
    std::vector<uint8_t> packed(kChunk);
    const uint64_t full_bytes = ref_len / 2;
    uint8_t invalid = 0;
    for (uint64_t at = 0; at < full_bytes;) {
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(kChunk, full_bytes - at));
        if (!in.read(reinterpret_cast<char *>(packed.data()),
                     static_cast<std::streamsize>(n)))
            throw Malformed("corrupt index (payload truncated)");
        Base *out = bases.data() + 2 * at;
        for (size_t i = 0; i < n; ++i) {
            std::memcpy(out + 2 * i, kNibbles.bases[packed[i]].data(), 2);
            invalid |= kNibbles.invalid[packed[i]];
        }
        at += n;
    }
    if (ref_len % 2 != 0) {
        // The last byte's high nibble is padding.
        uint8_t last = 0;
        if (!in.read(reinterpret_cast<char *>(&last), 1))
            throw Malformed("corrupt index (payload truncated)");
        bases[ref_len - 1] = static_cast<Base>(last & 0xF);
        invalid |= (last & 0xF) > kBaseN;
    }
    if (invalid)
        throw Malformed("corrupt index (invalid base code)");
    return Sequence(std::move(bases));
}

template <typename T>
T
readPod(std::istream &in)
{
    T v;
    if (!in.read(reinterpret_cast<char *>(&v), sizeof(T)))
        throw Malformed("corrupt index (payload truncated)");
    return v;
}

/**
 * Parse the payload after the magic: the container header, the
 * reference and the stored FM-index arrays. Throws Malformed on any
 * structural defect. Nothing parsed here indexes memory, and every
 * allocation is bounded by the bytes left in the file.
 */
FmdIndex::Stored
readPayload(std::istream &in, const ChecksummedFileBuf &buf, SdxData &data)
{
    data.version = readPod<uint32_t>(in);
    if (data.version != kSdxVersion)
        throw Malformed(strprintf("unsupported index version %u (this "
                                  "build reads %u)",
                                  data.version, kSdxVersion));

    // A contig record takes at least 12 bytes (name length + length).
    const uint32_t n_contigs = readPod<uint32_t>(in);
    if (n_contigs > buf.remaining() / 12)
        throw Malformed("corrupt index (payload truncated)");
    data.contigs.reserve(n_contigs);
    uint64_t contig_total = 0;
    for (uint32_t i = 0; i < n_contigs; ++i) {
        SdxContig c;
        const uint32_t name_len = readPod<uint32_t>(in);
        if (name_len > buf.remaining())
            throw Malformed("corrupt index (contig name overruns)");
        c.name.resize(name_len);
        if (!in.read(c.name.data(), name_len))
            throw Malformed("corrupt index (payload truncated)");
        c.length = readPod<uint64_t>(in);
        contig_total += c.length;
        data.contigs.push_back(std::move(c));
    }

    const uint64_t ref_len = readPod<uint64_t>(in);
    if (!data.contigs.empty() && contig_total != ref_len)
        throw Malformed("corrupt index (contig lengths do not sum to the "
                        "reference length)");
    if (ref_len / 2 + ref_len % 2 > buf.remaining())
        throw Malformed("corrupt index (reference overruns payload)");
    data.reference = readReference(in, ref_len);

    std::optional<FmdIndex::Stored> stored = FmdIndex::read(in, ref_len);
    if (!stored)
        throw Malformed(kMalformedFm);
    return std::move(*stored);
}

} // namespace

void
saveSdx(const std::string &path, const std::vector<SdxContig> &contigs,
        const Sequence &reference, const FmdIndex &index)
{
    std::string blob;
    blob.reserve(reference.size() / 2 + index.storageBytes() + 1024);
    appendPod(blob, kSdxMagic, sizeof(kSdxMagic));
    appendPod(blob, kSdxVersion);
    appendPod(blob, static_cast<uint32_t>(contigs.size()));
    for (const SdxContig &c : contigs) {
        appendPod(blob, static_cast<uint32_t>(c.name.size()));
        appendPod(blob, c.name.data(), c.name.size());
        appendPod(blob, c.length);
    }
    const uint64_t ref_len = reference.size();
    appendPod(blob, ref_len);
    // Nibble-pack the reference: two codes per byte, low nibble first.
    std::string packed((ref_len + 1) / 2, '\0');
    for (uint64_t i = 0; i < ref_len; ++i)
        packed[i / 2] = static_cast<char>(
            packed[i / 2] |
            static_cast<char>((reference[i] & 0xF) << ((i & 1) * 4)));
    blob += packed;
    std::ostringstream idx_stream;
    if (!index.save(idx_stream))
        throw SdxError(path + ": serializing the FM-index failed");
    blob += idx_stream.str();

    const uint32_t crc = crc32(blob.data(), blob.size());
    appendPod(blob, crc);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SdxError(path + ": cannot open for writing");
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.flush())
        throw SdxError(path + ": write failed (disk full?)");
}

SdxData
loadSdx(const std::string &path, int kmer_k)
{
    const std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "rb"));
    if (!file)
        throw SdxError(path + ": cannot open index file");
    // The streambuf buffers; stdio's own buffer would copy twice.
    std::setvbuf(file.get(), nullptr, _IONBF, 0);
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(path, ec);
    if (ec)
        throw SdxError(path + ": read failed");
    if (size < kSdxMinBytes)
        failCorrupt(path, "truncated index file");

    ChecksummedFileBuf buf(file.get(), size - 4);
    char magic[sizeof(kSdxMagic)];
    if (buf.sgetn(magic, sizeof(magic)) !=
        static_cast<std::streamsize>(sizeof(magic)))
        throw SdxError(path + ": read failed");
    if (std::memcmp(magic, kSdxMagic, sizeof(kSdxMagic)) != 0)
        throw SdxError(path +
                       ": not a seedex index (bad magic); build one "
                       "with `seedex index`");

    // Checksum whatever is left, then compare with the footer. Runs
    // before any structural error is reported and before anything is
    // derived from the payload.
    auto verifyFooter = [&] {
        buf.drain();
        uint32_t stored_crc = 0;
        if (!buf.readFooter(stored_crc))
            throw SdxError(path + ": read failed");
        if (stored_crc != buf.crc())
            failCorrupt(path,
                        strprintf("corrupt index (checksum mismatch: "
                                  "stored %08x, computed %08x)",
                                  stored_crc, buf.crc()));
    };

    std::istream in(&buf);
    SdxData data;
    std::optional<FmdIndex::Stored> stored;
    try {
        stored = readPayload(in, buf, data);
    } catch (const Malformed &e) {
        verifyFooter();
        failCorrupt(path, e.what());
    }
    verifyFooter();

    data.index = FmdIndex::build(std::move(*stored), data.reference, kmer_k);
    if (!data.index)
        failCorrupt(path, kMalformedFm);
    return data;
}

bool
isSdxFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[sizeof(kSdxMagic)] = {};
    in.read(head, sizeof(head));
    return in.gcount() == sizeof(head) &&
        std::memcmp(head, kSdxMagic, sizeof(head)) == 0;
}

} // namespace seedex

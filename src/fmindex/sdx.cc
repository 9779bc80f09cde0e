#include "fmindex/sdx.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <streambuf>

#include "util/crc32.h"
#include "util/table.h"

namespace seedex {

namespace {

constexpr char kSdxMagic[8] = {'S', 'E', 'E', 'D', 'X', 'S', 'D', 'X'};
/** magic + version + contig count + ref length + CRC footer. */
constexpr size_t kSdxMinBytes = 8 + 4 + 4 + 8 + 4;

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

/** Bounds-checked cursor over the in-memory payload. */
struct Cursor
{
    const char *p;
    size_t left;
    const std::string &path;

    void
    read(void *out, size_t n)
    {
        if (n > left)
            failCorrupt(path, "corrupt index (payload truncated)");
        std::memcpy(out, p, n);
        p += n;
        left -= n;
    }

    template <typename T>
    T
    pod()
    {
        T v;
        read(&v, sizeof(T));
        return v;
    }
};

/** Read-only streambuf over a memory range (for FmdIndex::load). */
class MemBuf : public std::streambuf
{
  public:
    MemBuf(const char *data, size_t len)
    {
        char *p = const_cast<char *>(data);
        setg(p, p, p + len);
    }
};

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
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SdxError(path + ": cannot open index file");
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad())
        throw SdxError(path + ": read failed");
    if (blob.size() < kSdxMinBytes)
        failCorrupt(path, "truncated index file");
    if (std::memcmp(blob.data(), kSdxMagic, sizeof(kSdxMagic)) != 0)
        throw SdxError(path +
                       ": not a seedex index (bad magic); build one "
                       "with `seedex index`");

    // Verify the footer before trusting any field past the magic.
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, blob.data() + blob.size() - 4, 4);
    const uint32_t computed = crc32(blob.data(), blob.size() - 4);
    if (stored_crc != computed)
        failCorrupt(path,
                    strprintf("corrupt index (checksum mismatch: stored "
                              "%08x, computed %08x)",
                              stored_crc, computed));

    Cursor cur{blob.data() + sizeof(kSdxMagic),
               blob.size() - sizeof(kSdxMagic) - 4, path};
    SdxData data;
    data.version = cur.pod<uint32_t>();
    if (data.version != kSdxVersion)
        throw SdxError(strprintf(
            "%s: unsupported index version %u (this build reads %u); "
            "rebuild with `seedex index`",
            path.c_str(), data.version, kSdxVersion));

    const uint32_t n_contigs = cur.pod<uint32_t>();
    uint64_t contig_total = 0;
    for (uint32_t i = 0; i < n_contigs; ++i) {
        SdxContig c;
        const uint32_t name_len = cur.pod<uint32_t>();
        if (name_len > cur.left)
            failCorrupt(path, "corrupt index (contig name overruns)");
        c.name.assign(cur.p, name_len);
        cur.p += name_len;
        cur.left -= name_len;
        c.length = cur.pod<uint64_t>();
        contig_total += c.length;
        data.contigs.push_back(std::move(c));
    }

    const uint64_t ref_len = cur.pod<uint64_t>();
    if (!data.contigs.empty() && contig_total != ref_len)
        failCorrupt(path, "corrupt index (contig lengths do not sum to "
                          "the reference length)");
    const uint64_t packed_bytes = (ref_len + 1) / 2;
    if (packed_bytes > cur.left)
        failCorrupt(path, "corrupt index (reference overruns payload)");
    std::vector<Base> bases(ref_len);
    for (uint64_t i = 0; i < ref_len; ++i) {
        const Base b = static_cast<Base>(
            (static_cast<uint8_t>(cur.p[i / 2]) >> ((i & 1) * 4)) & 0xF);
        if (b > kBaseN)
            failCorrupt(path, "corrupt index (invalid base code)");
        bases[i] = b;
    }
    cur.p += packed_bytes;
    cur.left -= packed_bytes;
    data.reference = Sequence(std::move(bases));

    MemBuf idx_buf(cur.p, cur.left);
    std::istream idx_stream(&idx_buf);
    data.index = FmdIndex::load(idx_stream, data.reference, kmer_k);
    if (!data.index)
        failCorrupt(path, "corrupt index (malformed FM-index payload, or "
                          "its length does not match the stored "
                          "reference)");
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

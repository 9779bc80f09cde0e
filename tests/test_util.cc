#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/histogram.h"
#include "util/huge_pages.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace seedex {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, CoinMatchesProbability)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 50000; ++i)
        heads += rng.coin(0.25);
    EXPECT_NEAR(heads / 50000.0, 0.25, 0.02);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(Histogram, CountsAndFractions)
{
    Histogram h;
    for (int i = 0; i < 90; ++i)
        h.add(5);
    for (int i = 0; i < 10; ++i)
        h.add(50);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.countAtMost(5), 90u);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(10), 0.9);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(50), 1.0);
    EXPECT_EQ(h.countInRange(6, 50), 10u);
    EXPECT_EQ(h.max(), 50);
    EXPECT_NEAR(h.mean(), 0.9 * 5 + 0.1 * 50, 1e-9);
}

TEST(Histogram, Quantile)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.quantile(0.5), 50);
    EXPECT_EQ(h.quantile(0.98), 98);
    EXPECT_EQ(h.quantile(1.0), 100);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(10), 0.0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_EQ(h.percentile(0.5), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileNearestRank)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 50);
    EXPECT_EQ(h.percentile(0.90), 90);
    EXPECT_EQ(h.percentile(0.99), 99);
    EXPECT_EQ(h.percentile(1.0), 100);
    // Small q still returns the smallest value (rank clamps to >= 1),
    // and out-of-range q clamps instead of misbehaving.
    EXPECT_EQ(h.percentile(0.0), 1);
    EXPECT_EQ(h.percentile(0.001), 1);
    EXPECT_EQ(h.percentile(-1.0), 1);
    EXPECT_EQ(h.percentile(7.0), 100);
}

TEST(Histogram, PercentileSmallSampleRanks)
{
    Histogram h;
    h.add(10);
    h.add(20);
    h.add(30);
    // ceil(0.5 * 3) = 2nd smallest; ceil(0.34 * 3) = 2nd as well.
    EXPECT_EQ(h.percentile(0.5), 20);
    EXPECT_EQ(h.percentile(0.34), 20);
    EXPECT_EQ(h.percentile(0.33), 10);
    EXPECT_EQ(h.percentile(0.67), 30);
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stopwatch, AccumulatesAcrossIntervals)
{
    Stopwatch w;
    w.start();
    w.stop();
    const double first = w.seconds();
    w.start();
    w.stop();
    EXPECT_GE(w.seconds(), first);
    w.reset();
    EXPECT_EQ(w.seconds(), 0.0);
}

TEST(Stopwatch, StartWhileRunningKeepsAccumulating)
{
    // Resume semantics: a second start() must not rebase the interval
    // and drop the time accumulated since the first start().
    Stopwatch w;
    w.start();
    // Burn a measurable amount of time.
    volatile double sink = 0;
    for (int i = 0; i < 2000000; ++i)
        sink += static_cast<double>(i);
    const double before = w.seconds();
    ASSERT_GT(before, 0.0);
    w.start(); // no-op: already running
    EXPECT_GE(w.seconds(), before);
    w.stop();
    EXPECT_GE(w.seconds(), before);
}

TEST(Stopwatch, LapFoldsIntervalsAndReturnsThem)
{
    Stopwatch w;
    // lap() on a stopped watch starts it and returns 0.
    EXPECT_EQ(w.lap(), 0.0);
    volatile double sink = 0;
    for (int i = 0; i < 1000000; ++i)
        sink += static_cast<double>(i);
    const double lap1 = w.lap();
    EXPECT_GT(lap1, 0.0);
    // The folded interval is part of the running total.
    EXPECT_GE(w.seconds(), lap1);
    const double lap2 = w.lap();
    EXPECT_GE(lap2, 0.0);
    w.stop();
    EXPECT_GE(w.seconds(), lap1 + lap2);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"a", "long_column"});
    t.addRow({"xx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("long_column"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, HandlesRowsWiderThanHeader)
{
    TextTable t;
    t.setHeader({"only"});
    t.addRow({"a", "b", "c"});
    EXPECT_NE(t.render().find("c"), std::string::npos);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
    EXPECT_EQ(strprintf("empty"), "empty");
}

// ---- CRC-32 -------------------------------------------------------------

/** Bit-at-a-time CRC-32 straight from the polynomial: the reference the
 *  table-driven implementation must match. */
uint32_t
bitwiseCrc32(const uint8_t *p, size_t len)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValueAndEmptyInput)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    Crc32 crc;
    EXPECT_EQ(crc.value(), 0u);
    crc.update("123456789", 9);
    EXPECT_EQ(crc.value(), 0xCBF43926u);
    crc.reset();
    EXPECT_EQ(crc.value(), 0u);
}

TEST(Crc32, SplitsAndAlignmentsMatchOneShot)
{
    // Every length 0..64 at every start offset 0..15, fed in two pieces
    // split at every point: the 16-byte fold and the byte tail must
    // agree however the stream is cut and however it is aligned.
    Rng rng(11);
    std::vector<uint8_t> buf(16 + 64);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t offset = 0; offset < 16; ++offset) {
        for (size_t len = 0; len <= 64; ++len) {
            const uint8_t *p = buf.data() + offset;
            const uint32_t want = bitwiseCrc32(p, len);
            ASSERT_EQ(crc32(p, len), want)
                << "offset " << offset << " len " << len;
            for (size_t split = 0; split <= len; ++split) {
                Crc32 crc;
                crc.update(p, split);
                crc.update(p + split, len - split);
                ASSERT_EQ(crc.value(), want) << "offset " << offset
                                             << " len " << len
                                             << " split " << split;
            }
        }
    }
}

TEST(Crc32, MebibyteMatchesBitwiseReference)
{
    Rng rng(12);
    std::vector<uint8_t> buf(size_t{1} << 20);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              bitwiseCrc32(buf.data(), buf.size()));
}

/** One mapping of this process, as /proc/self/smaps lists it. */
struct Vma
{
    uintptr_t begin = 0;
    uintptr_t end = 0;
    /** VmFlags carries `hg`: advised with MADV_HUGEPAGE. */
    bool huge_advised = false;
};

/** The mapping that holds `addr`; nullopt where smaps is unreadable. */
std::optional<Vma>
vmaAt(const void *addr)
{
    std::ifstream in("/proc/self/smaps");
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    std::optional<Vma> found;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        // A mapping's header line is "begin-end perms offset dev inode";
        // its field lines ("Size:", "VmFlags:", ...) follow it.
        unsigned long long begin = 0, end = 0;
        if (std::sscanf(line.c_str(), "%llx-%llx ", &begin, &end) == 2) {
            inside = begin <= a && a < end;
            if (inside)
                found = Vma{begin, end, false};
        } else if (inside && line.rfind("VmFlags:", 0) == 0) {
            found->huge_advised = (line + " ").find(" hg ") !=
                std::string::npos;
        }
    }
    return found;
}

TEST(HugePageAllocator, AdvisesOnlyTheWholeHugePages)
{
    // A tail past the last whole 2 MiB page stays on 4 KiB pages, so an
    // array a few bytes over a power of two costs no extra 2 MiB.
    EXPECT_EQ(hugePageAdviceBytes(kHugePageBytes - 1), 0u);
    EXPECT_EQ(hugePageAdviceBytes(kHugePageBytes), kHugePageBytes);
    EXPECT_EQ(hugePageAdviceBytes(kHugePageBytes + 64), kHugePageBytes);
    EXPECT_EQ(hugePageAdviceBytes((size_t{64} << 20) + 64),
              size_t{64} << 20);
}

TEST(HugePageAllocator, SmallArraysKeepTheirAlignment)
{
    // Below 2 MiB the arrays come from aligned operator new: at least
    // 16-byte aligned, and a 64-byte block (PackedBwt::Block's shape)
    // on its cache line.
    struct alignas(64) Block
    {
        uint64_t words[8];
    };
    HugePageAllocator<Block> blocks;
    for (const size_t n : {size_t{1}, size_t{3},
                           kHugePageBytes / sizeof(Block) - 1}) {
        Block *p = blocks.allocate(n);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u) << n;
        p[n - 1].words[7] = n;
        blocks.deallocate(p, n);
    }
    HugePageAllocator<uint8_t> bytes;
    for (const size_t n : {size_t{1}, size_t{7}, kHugePageBytes - 1}) {
        uint8_t *p = bytes.allocate(n);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u) << n;
        p[n - 1] = 1;
        bytes.deallocate(p, n);
    }
}

TEST(HugePageAllocator, LargeArraysStartOnAHugePageAndAdviseOnlyWholePages)
{
    // From 2 MiB up the array is its own mapping, 2 MiB-aligned; its
    // whole 2 MiB pages carry the huge-page advice and its tail does
    // not. A kernel without transparent huge pages advises nothing.
    const bool thp =
        std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled").good();
    HugePageAllocator<uint8_t> alloc;
    for (const size_t n : {kHugePageBytes, kHugePageBytes + 64,
                           (size_t{64} << 20) + 64}) {
        uint8_t *p = alloc.allocate(n);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kHugePageBytes, 0u) << n;
        p[0] = 1;
        p[n - 1] = 2;
        const size_t advised = hugePageAdviceBytes(n);
        const std::optional<Vma> head = vmaAt(p);
        if (head) {
            EXPECT_EQ(head->huge_advised, thp) << n;
            if (thp) {
                EXPECT_EQ(head->end, reinterpret_cast<uintptr_t>(p) + advised)
                    << n;
            }
            if (advised < n) {
                const std::optional<Vma> tail = vmaAt(p + advised);
                ASSERT_TRUE(tail.has_value()) << n;
                EXPECT_FALSE(tail->huge_advised) << n;
            }
        }
        alloc.deallocate(p, n);
    }
}

} // namespace
} // namespace seedex

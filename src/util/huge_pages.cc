#include "util/huge_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

namespace seedex {

void *
mapHugePages(size_t bytes)
{
    // Over-map by one huge page, then trim both ends so the mapping
    // starts on a 2 MiB boundary and ends at the first 4 KiB page
    // boundary past `bytes`.
    const size_t span = bytes + kHugePageBytes;
    void *raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t start = (base + kHugePageBytes - 1) &
        ~static_cast<uintptr_t>(kHugePageBytes - 1);
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t end = (start + bytes + page - 1) & ~(page - 1);
    if (start > base)
        munmap(raw, start - base);
    if (base + span > end)
        munmap(reinterpret_cast<void *>(end), base + span - end);
#ifdef MADV_HUGEPAGE
    // Best effort: without THP the pages stay 4 KiB, same bytes.
    madvise(reinterpret_cast<void *>(start), hugePageAdviceBytes(bytes),
            MADV_HUGEPAGE);
#endif
    return reinterpret_cast<void *>(start);
}

void
unmapHugePages(void *p, size_t bytes) noexcept
{
    munmap(p, bytes);
}

double
anonHugePageMib()
{
    std::ifstream in("/proc/self/smaps_rollup");
    const std::string field = "AnonHugePages:";
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, field.size(), field) == 0)
            return std::strtod(line.c_str() + field.size(), nullptr) /
                1024.0; // the field is in kB
    return 0;
}

} // namespace seedex

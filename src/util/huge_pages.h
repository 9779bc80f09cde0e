#ifndef SEEDEX_UTIL_HUGE_PAGES_H
#define SEEDEX_UTIL_HUGE_PAGES_H

#include <algorithm>
#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace seedex {

/** Bytes of one transparent huge page (a PMD mapping on x86-64). */
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/**
 * The prefix of a `bytes`-long, 2 MiB-aligned mapping that is advised
 * for huge pages: its whole 2 MiB pages only. The tail stays on 4 KiB
 * pages, so an array a few bytes past a power of two (every index array
 * of a power-of-two genome) does not round up to another 2 MiB of
 * resident memory. 0 below 2 MiB.
 */
constexpr size_t
hugePageAdviceBytes(size_t bytes)
{
    return bytes & ~(kHugePageBytes - 1);
}

/**
 * Map `bytes` (>= kHugePageBytes) of zeroed anonymous memory at a 2 MiB
 * boundary and advise hugePageAdviceBytes(bytes) of it for transparent
 * huge pages, before anything touches it. Where the advice fails (THP
 * set to `never`, or no MADV_HUGEPAGE) the memory stays on 4 KiB pages
 * with the same contents. Throws std::bad_alloc when the mapping fails.
 */
void *mapHugePages(size_t bytes);

/** Release a mapHugePages(bytes) mapping. */
void unmapHugePages(void *p, size_t bytes) noexcept;

/** AnonHugePages of this process in MiB, from /proc/self/smaps_rollup;
 *  0 where the file or the field is missing. */
double anonHugePageMib();

/**
 * Allocator for the FM-index arrays: a random rank, locate or text
 * probe touches a new 4 KiB page almost every time, so on 4 KiB pages
 * every query pays a TLB miss on top of its cache miss. Arrays of 2 MiB
 * and more come from mapHugePages; smaller ones from aligned operator
 * new (at least 16-byte aligned, and a type's own alignment, such as a
 * 64-byte block's, is kept), so they stay visible to heap checkers.
 */
template <typename T>
class HugePageAllocator
{
  public:
    using value_type = T;

    HugePageAllocator() = default;
    template <typename U>
    HugePageAllocator(const HugePageAllocator<U> &) noexcept
    {}

    T *
    allocate(size_t n)
    {
        if (n > (std::numeric_limits<size_t>::max() - kHugePageBytes) /
                sizeof(T))
            throw std::bad_array_new_length();
        const size_t bytes = n * sizeof(T);
        if (bytes < kHugePageBytes)
            return static_cast<T *>(::operator new(bytes, kSmallAlign));
        return static_cast<T *>(mapHugePages(bytes));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        const size_t bytes = n * sizeof(T);
        if (bytes < kHugePageBytes)
            ::operator delete(p, kSmallAlign);
        else
            unmapHugePages(p, bytes);
    }

    template <typename U>
    bool
    operator==(const HugePageAllocator<U> &) const noexcept
    {
        return true;
    }

  private:
    static constexpr std::align_val_t kSmallAlign{
        std::max<size_t>(alignof(T), 16)};
};

/** A vector on HugePageAllocator. */
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

} // namespace seedex

#endif // SEEDEX_UTIL_HUGE_PAGES_H

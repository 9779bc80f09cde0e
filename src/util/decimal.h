#ifndef SEEDEX_UTIL_DECIMAL_H
#define SEEDEX_UTIL_DECIMAL_H

#include <charconv>
#include <concepts>
#include <string>

namespace seedex {

/**
 * Append the decimal text of an integer to `out`: the same digits as
 * printf's %d / %llu / %lld (a leading '-' for negatives, no padding),
 * written with std::to_chars, so no format string is parsed and no
 * locale is consulted. The SAM record and CIGAR renderers build every
 * number this way.
 */
template <std::integral Int>
inline void
appendDecimal(std::string &out, Int value)
{
    char buf[24]; // 20 digits of a uint64_t, or a sign and 19 digits
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, r.ptr);
}

} // namespace seedex

#endif // SEEDEX_UTIL_DECIMAL_H

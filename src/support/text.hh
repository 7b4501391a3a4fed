/**
 * @file
 * Small text helpers shared by the lexer, parsers, and code generators,
 * plus the strict value parsers of the command lines and batch
 * manifests and the one JSON string escaper.
 */

#ifndef ASIM_SUPPORT_TEXT_HH
#define ASIM_SUPPORT_TEXT_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace asim {

/** Letters per the thesis grammar (a..z, A..Z). */
constexpr bool
isLetter(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/** Decimal digits. */
constexpr bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Hex digits per the thesis grammar (0..9, A..F — upper case only). */
constexpr bool
isHexDigit(char c)
{
    return isDigit(c) || (c >= 'A' && c <= 'F');
}

/** Valid name: a letter followed by letters and digits. */
bool isValidName(std::string_view s);

/** Join pieces with `sep`. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view sep);

/** True if `s` starts with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True if `hay` contains `needle`. */
bool contains(std::string_view hay, std::string_view needle);

/** Count occurrences of `needle` in `hay` (non-overlapping). */
int countOccurrences(std::string_view hay, std::string_view needle);

/** Append `v` in decimal (what `ostream << v` prints) to `out`. */
void appendInt(std::string &out, int64_t v);

/**
 * Strict whole-string number parsers for command-line flags and batch
 * manifests. All of `s` must be the number, decimal or hexadecimal
 * after `0x`: no whitespace, no `+`, no trailing text, and the value
 * must be in range. Anything else is nullopt, never a partial read or
 * a wrapped value.
 */
std::optional<uint64_t>
parseU64(std::string_view s,
         uint64_t max = std::numeric_limits<uint64_t>::max());

/** parseU64, and at least 1. */
std::optional<uint64_t>
parsePositiveCount(std::string_view s,
                   uint64_t max = std::numeric_limits<uint64_t>::max());

/** A 32-bit signed value: parseU64's grammar after an optional '-'. */
std::optional<int32_t> parseI32(std::string_view s);

/** A TCP port, 0..65535. */
std::optional<int> parsePort(std::string_view s);

/** A watchpoint, `component:value`. */
struct ComponentValue
{
    std::string component;
    int32_t value = 0;
};

/** `component:value`, split at the last ':': a non-empty component
 *  name and a parseI32 value. */
std::optional<ComponentValue> parseComponentValue(std::string_view s);

/** Escape `s` for a JSON string literal: quotes and backslashes,
 *  `\n` `\t` `\r` by name, other control characters as `\u00XX`.
 *  Lossless: the literal decodes back to `s`. */
std::string jsonEscape(std::string_view s);

} // namespace asim

#endif // ASIM_SUPPORT_TEXT_HH

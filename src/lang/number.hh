/**
 * @file
 * ASIM II number grammar (thesis Appendix B `number` / `str2num`).
 *
 * A number is a sum of atoms joined by `+` with no whitespace:
 *   - decimal:      `128`
 *   - hex:          `$7F`    (digits 0-9, A-F)
 *   - binary:       `%1101`
 *   - power of two: `^12`    (= 2^12)
 *
 * Example from the thesis decode ROM: `128+3+^8` = 387.
 */

#ifndef ASIM_LANG_NUMBER_HH
#define ASIM_LANG_NUMBER_HH

#include <cstdint>
#include <string_view>

namespace asim {

/**
 * Parse a number token.
 *
 * @throws SpecError on a malformed number (the thesis' "Error.
 *         Malformed number" diagnostic).
 */
int32_t parseNumber(std::string_view text);

/** Parse a possibly-negative number (memory size field: `-133`). */
int64_t parseSignedNumber(std::string_view text);

/**
 * Parse a constant as the spec writer prints it: a number, or '-'
 * followed by decimal digits only, the writer's form of a value that
 * wrapped negative (`^31` prints as `-2147483648`, `$FFFFFFFF` as
 * `-1`). Anything else after a '-' is malformed.
 */
int32_t parseConstant(std::string_view text);

/** True if `text` is a syntactically valid number. */
bool isNumber(std::string_view text);

/** True if `text` is a valid *numeric expression constant* — the
 *  thesis' `numeric()` check used to trigger code optimization: every
 *  character is one of `+ % $ ^ 0-9 A-F`. */
bool isNumericText(std::string_view text);

} // namespace asim

#endif // ASIM_LANG_NUMBER_HH

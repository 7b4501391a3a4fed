#include "lang/number.hh"

#include <algorithm>
#include <string>

#include "support/bitops.hh"
#include "support/logging.hh"
#include "support/text.hh"

namespace asim {

namespace {

[[noreturn]] void
malformed(std::string_view text)
{
    throw SpecError("Error. Malformed number " + std::string(text) + ".");
}

/** A number's value two ways: its low 32 bits (the thesis' wrapping
 *  datapath value) and, when `Exact`, its exact value saturated at
 *  kWideMax (a count such as a memory size, which must not wrap). A
 *  datapath value, the common case, skips the exact one. */
template <bool Exact>
struct Value
{
    uint32_t low = 0;
    uint64_t wide = 0;
};

constexpr uint64_t kWideMax = uint64_t{1} << 62;

/** `v * radix + digit`, both ways. */
template <bool Exact>
void
accumulate(Value<Exact> &v, uint32_t radix, uint32_t digit)
{
    v.low = v.low * radix + digit;
    if constexpr (Exact) {
        v.wide = v.wide > kWideMax / radix
                     ? kWideMax
                     : std::min(kWideMax, v.wide * radix + digit);
    }
}

/** Parse one atom starting at `i`; advances `i` past the atom. */
template <bool Exact>
Value<Exact>
parseAtom(std::string_view text, size_t &i)
{
    if (i >= text.size())
        malformed(text);
    char c = text[i];
    Value<Exact> v;
    if (isDigit(c)) {
        while (i < text.size() && isDigit(text[i])) {
            accumulate(v, 10, text[i] - '0');
            ++i;
        }
    } else if (c == '$') {
        ++i;
        if (i >= text.size() || !isHexDigit(text[i]))
            malformed(text);
        while (i < text.size() && isHexDigit(text[i])) {
            accumulate(v, 16,
                       isDigit(text[i]) ? text[i] - '0'
                                        : text[i] - 'A' + 10);
            ++i;
        }
    } else if (c == '%') {
        ++i;
        if (i >= text.size() || (text[i] != '0' && text[i] != '1'))
            malformed(text);
        while (i < text.size() && (text[i] == '0' || text[i] == '1')) {
            accumulate(v, 2, text[i] - '0');
            ++i;
        }
    } else if (c == '^') {
        ++i;
        if (i >= text.size() || !isDigit(text[i]))
            malformed(text);
        uint64_t e = 0;
        while (i < text.size() && isDigit(text[i])) {
            e = std::min<uint64_t>(e * 10 + (text[i] - '0'), 64);
            ++i;
        }
        // str2num doubles 1, e times, in the wrapping datapath: the
        // bit moves out of the low 32 bits from e = 32 on.
        v.low = e < 32 ? uint32_t{1} << e : 0;
        v.wide = e < 62 ? uint64_t{1} << e : kWideMax;
    } else {
        malformed(text);
    }
    return v;
}

/** Parse a sum of atoms. */
template <bool Exact>
Value<Exact>
parseSum(std::string_view text)
{
    if (text.empty())
        malformed(text);
    size_t i = 0;
    Value<Exact> total;
    while (true) {
        const Value<Exact> v = parseAtom<Exact>(text, i);
        total.low += v.low;
        if constexpr (Exact)
            total.wide = std::min(kWideMax, total.wide + v.wide);
        if (i == text.size())
            return total;
        if (text[i] != '+')
            malformed(text);
        ++i;
    }
}

} // namespace

int32_t
parseNumber(std::string_view text)
{
    return static_cast<int32_t>(parseSum<false>(text).low);
}

int64_t
parseSignedNumber(std::string_view text)
{
    const bool negative = !text.empty() && text[0] == '-';
    const auto n = static_cast<int64_t>(
        parseSum<true>(negative ? text.substr(1) : text).wide);
    return negative ? -n : n;
}

int32_t
parseConstant(std::string_view text)
{
    if (text.empty() || text[0] != '-')
        return parseNumber(text);
    std::string_view digits = text.substr(1);
    if (digits.empty())
        malformed(text);
    for (char c : digits) {
        if (!isDigit(c))
            malformed(text);
    }
    return wsub(0, parseNumber(digits));
}

bool
isNumber(std::string_view text)
{
    try {
        parseNumber(text);
        return true;
    } catch (const SpecError &) {
        return false;
    }
}

bool
isNumericText(std::string_view text)
{
    if (text.empty())
        return false;
    for (char c : text) {
        if (c != '+' && c != '%' && c != '$' && c != '^' &&
            !isDigit(c) && !(c >= 'A' && c <= 'F')) {
            return false;
        }
    }
    return true;
}

} // namespace asim

#include "lang/number.hh"

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

/** Parse one atom starting at `i`; advances `i` past the atom. */
int32_t
parseAtom(std::string_view text, size_t &i)
{
    if (i >= text.size())
        malformed(text);
    char c = text[i];
    int64_t k = 0;
    if (isDigit(c)) {
        while (i < text.size() && isDigit(text[i])) {
            k = k * 10 + (text[i] - '0');
            ++i;
        }
    } else if (c == '$') {
        ++i;
        if (i >= text.size() || !isHexDigit(text[i]))
            malformed(text);
        while (i < text.size() && isHexDigit(text[i])) {
            k *= 16;
            if (isDigit(text[i]))
                k += text[i] - '0';
            else
                k += text[i] - 'A' + 10;
            ++i;
        }
    } else if (c == '%') {
        ++i;
        if (i >= text.size() || (text[i] != '0' && text[i] != '1'))
            malformed(text);
        while (i < text.size() && (text[i] == '0' || text[i] == '1')) {
            k = k * 2 + (text[i] - '0');
            ++i;
        }
    } else if (c == '^') {
        ++i;
        if (i >= text.size() || !isDigit(text[i]))
            malformed(text);
        int64_t e = 0;
        while (i < text.size() && isDigit(text[i])) {
            e = e * 10 + (text[i] - '0');
            ++i;
        }
        // Faithful to str2num: 1 multiplied by 2, e times (wraps).
        int32_t v = 1;
        for (int64_t m = 0; m < e; ++m)
            v = wmul(v, 2);
        return v;
    } else {
        malformed(text);
    }
    return static_cast<int32_t>(k);
}

} // namespace

int32_t
parseNumber(std::string_view text)
{
    if (text.empty())
        malformed(text);
    size_t i = 0;
    int32_t total = 0;
    while (true) {
        total = wadd(total, parseAtom(text, i));
        if (i == text.size())
            return total;
        if (text[i] != '+')
            malformed(text);
        ++i;
    }
}

int64_t
parseSignedNumber(std::string_view text)
{
    if (!text.empty() && text[0] == '-')
        return -static_cast<int64_t>(parseNumber(text.substr(1)));
    return parseNumber(text);
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

#include "support/text.hh"

#include <charconv>
#include <cstdio>

namespace asim {

bool
isValidName(std::string_view s)
{
    if (s.empty() || !isLetter(s[0]))
        return false;
    for (char c : s.substr(1)) {
        if (!isLetter(c) && !isDigit(c))
            return false;
    }
    return true;
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
contains(std::string_view hay, std::string_view needle)
{
    return hay.find(needle) != std::string_view::npos;
}

int
countOccurrences(std::string_view hay, std::string_view needle)
{
    if (needle.empty())
        return 0;
    int n = 0;
    size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string_view::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

std::optional<uint64_t>
parseU64(std::string_view s, uint64_t max)
{
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        base = 16;
        s.remove_prefix(2);
    }
    uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<uint64_t>
parsePositiveCount(std::string_view s, uint64_t max)
{
    auto v = parseU64(s, max);
    if (!v || *v == 0)
        return std::nullopt;
    return v;
}

std::optional<int32_t>
parseI32(std::string_view s)
{
    const bool negative = !s.empty() && s[0] == '-';
    if (negative)
        s.remove_prefix(1);
    const uint64_t limit =
        negative ? uint64_t{1} << 31 : (uint64_t{1} << 31) - 1;
    auto magnitude = parseU64(s, limit);
    if (!magnitude)
        return std::nullopt;
    const auto v = static_cast<int64_t>(*magnitude);
    return static_cast<int32_t>(negative ? -v : v);
}

std::optional<int>
parsePort(std::string_view s)
{
    auto v = parseU64(s, 65535);
    if (!v)
        return std::nullopt;
    return static_cast<int>(*v);
}

std::optional<ComponentValue>
parseComponentValue(std::string_view s)
{
    auto colon = s.rfind(':');
    if (colon == std::string_view::npos || colon == 0)
        return std::nullopt;
    auto value = parseI32(s.substr(colon + 1));
    if (!value)
        return std::nullopt;
    return ComponentValue{std::string(s.substr(0, colon)), *value};
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace asim

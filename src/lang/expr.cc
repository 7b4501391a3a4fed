#include "lang/expr.hh"

#include <algorithm>
#include <charconv>

#include "lang/ast.hh"
#include "lang/number.hh"
#include "support/bitops.hh"
#include "support/logging.hh"
#include "support/text.hh"

namespace asim {

namespace {

[[noreturn]] void
malformed(std::string_view text)
{
    throw SpecError("Error. Malformed expression " + std::string(text) +
                    ".");
}

/** What one scan of a term's bytes finds: where it ends (at a comma
 *  or the end of the expression), its first two dots, whether it has
 *  more, and whether every byte before the first dot is a letter or a
 *  digit. Offsets are from the term's start; npos when absent. */
struct TermScan
{
    std::string_view piece;
    size_t dot1 = std::string_view::npos;
    size_t dot2 = std::string_view::npos;
    bool moreDots = false;
    bool alnumHead = true;
    NameHash headHash; ///< of the bytes before the first dot
};

TermScan
scanTerm(std::string_view text, size_t start)
{
    TermScan s;
    size_t i = start;
    // The head, hashed as a name while it is letters and digits.
    for (; i < text.size() && (isLetter(text[i]) || isDigit(text[i])); ++i)
        s.headHash.add(text[i]);
    // The rest up to the comma: the dots, and any other byte, which
    // ends the head unless a dot came first.
    for (; i < text.size() && text[i] != ','; ++i) {
        if (text[i] != '.') {
            s.alnumHead = s.alnumHead && s.dot1 != std::string_view::npos;
        } else if (s.dot1 == std::string_view::npos) {
            s.dot1 = i - start;
        } else if (s.dot2 == std::string_view::npos) {
            s.dot2 = i - start;
        } else {
            s.moreDots = true;
        }
    }
    s.piece = text.substr(start, i - start);
    return s;
}

/** Parse one scanned comma-free piece into a Term, interning a
 *  reference's name in `names`. */
Term
parseTerm(const TermScan &s, std::string_view whole, NameStore &names)
{
    const std::string_view piece = s.piece;
    Term t;
    if (piece.empty())
        malformed(whole);

    char c = piece[0];
    if (c == '#') {
        // Binary bit string: width = number of digits.
        t.kind = Term::Kind::BitString;
        std::string_view bits = piece.substr(1);
        if (bits.empty())
            malformed(whole);
        int32_t v = 0;
        for (char b : bits) {
            if (b != '0' && b != '1')
                malformed(whole);
            v = static_cast<int32_t>(static_cast<uint32_t>(v) * 2 +
                                     static_cast<uint32_t>(b - '0'));
        }
        // Wider than any expression may be: the resolver's error,
        // raised where the width is still known.
        if (bits.size() > static_cast<size_t>(kMaxBits)) {
            throw SpecError("Error. Too many bits in " +
                            std::string(whole) + ".");
        }
        t.value = v;
        t.width = static_cast<int8_t>(bits.size());
        return t;
    }

    if (isDigit(c) || c == '$' || c == '%' || c == '^' ||
        (c == '-' && piece.size() > 1 && isDigit(piece[1]))) {
        // Constant, optionally followed by `.width`. A leading '-' is
        // how exprToString writes a constant that wrapped negative
        // (`^31`, `$FFFFFFFF`), so written specs parse back.
        t.kind = Term::Kind::Const;
        if (s.dot1 == std::string_view::npos) {
            t.value = parseConstant(piece);
            t.width = -1;
        } else {
            t.value = parseConstant(piece.substr(0, s.dot1));
            std::string_view wtext = piece.substr(s.dot1 + 1);
            if (wtext.empty())
                malformed(whole);
            const int32_t width = parseNumber(wtext);
            if (width < 0 || width > 31)
                malformed(whole);
            t.width = static_cast<int8_t>(width);
        }
        return t;
    }

    if (isLetter(c)) {
        // Component reference with optional subfield: `name`,
        // `name.from` or `name.from.to`.
        t.kind = Term::Kind::Ref;
        if (!s.alnumHead)
            malformed(whole);
        int32_t from = -1, to = -1;
        if (s.dot1 != std::string_view::npos) {
            if (s.moreDots)
                malformed(whole);
            const bool hasTo = s.dot2 != std::string_view::npos;
            std::string_view fromText =
                piece.substr(s.dot1 + 1, hasTo ? s.dot2 - s.dot1 - 1
                                               : std::string_view::npos);
            if (fromText.empty())
                malformed(whole);
            from = parseNumber(fromText);
            if (hasTo) {
                std::string_view toText = piece.substr(s.dot2 + 1);
                if (toText.empty())
                    malformed(whole);
                to = parseNumber(toText);
                if (to < from)
                    malformed(whole);
            }
            if (from > 31 || to > 31)
                malformed(whole);
        }
        // A field number that wrapped negative (`$FFFFFFFF`) reads as
        // "absent", as every consumer tests only for < 0.
        t.from = static_cast<int8_t>(from < 0 ? -1 : from);
        t.to = static_cast<int8_t>(to < 0 ? -1 : to);
        t.ref = names.intern(piece.substr(0, s.dot1), s.headHash.value());
        return t;
    }

    malformed(whole);
}

} // namespace

bool
isConstant(const Spec &spec, Expr expr)
{
    for (const Term &t : spec.terms(expr)) {
        if (t.kind == Term::Kind::Ref)
            return false;
    }
    return true;
}

Expr
parseExpr(std::string_view text, Spec &spec)
{
    if (text.empty())
        malformed(text);
    Expr e;
    e.first = static_cast<uint32_t>(spec.termPool.size());
    size_t start = 0;
    while (true) {
        const TermScan s = scanTerm(text, start);
        spec.termPool.push_back(parseTerm(s, text, spec.names));
        start += s.piece.size();
        if (start == text.size())
            break;
        ++start; // the comma
    }
    e.count = static_cast<uint32_t>(spec.termPool.size()) - e.first;
    return e;
}

size_t
exprTextBound(const Spec &spec, Expr expr)
{
    // Each term and its comma: a constant of at most 11 characters
    // and a width; a '#' and the digits; a name and up to two fields
    // (an int8 field is at most 4 characters).
    size_t n = 0;
    for (const Term &t : spec.terms(expr)) {
        switch (t.kind) {
          case Term::Kind::Const:
            n += 17;
            break;
          case Term::Kind::BitString:
            n += 2 + static_cast<size_t>(std::max<int>(t.width, 0));
            break;
          case Term::Kind::Ref:
            n += spec.name(t.ref).size() + 11;
            break;
        }
    }
    return n;
}

char *
writeExpr(char *out, const Spec &spec, Expr expr)
{
    const auto field = [&out](int v) {
        *out++ = '.';
        out = std::to_chars(out, out + 4, v).ptr;
    };
    bool firstTerm = true;
    for (const Term &t : spec.terms(expr)) {
        if (!firstTerm)
            *out++ = ',';
        firstTerm = false;
        switch (t.kind) {
          case Term::Kind::Const:
            out = std::to_chars(out, out + 11, t.value).ptr;
            if (t.width >= 0)
                field(t.width);
            break;
          case Term::Kind::BitString:
            *out++ = '#';
            for (int b = t.width - 1; b >= 0; --b)
                *out++ = static_cast<char>('0' + ((t.value >> b) & 1));
            break;
          case Term::Kind::Ref: {
            const std::string_view name = spec.name(t.ref);
            out = std::copy(name.begin(), name.end(), out);
            if (t.from >= 0)
                field(t.from);
            if (t.to >= 0)
                field(t.to);
            break;
          }
        }
    }
    return out;
}

std::string
exprToString(const Spec &spec, Expr expr)
{
    std::string out(exprTextBound(spec, expr), '\0');
    out.resize(writeExpr(out.data(), spec, expr) - out.data());
    return out;
}

std::vector<std::string_view>
referencedNames(const Spec &spec, Expr expr)
{
    std::vector<std::string_view> names;
    for (const Term &t : spec.terms(expr)) {
        if (t.kind == Term::Kind::Ref)
            names.push_back(spec.name(t.ref));
    }
    return names;
}

} // namespace asim

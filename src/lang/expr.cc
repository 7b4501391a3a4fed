#include "lang/expr.hh"

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

/** Parse one comma-free piece into a Term, interning a reference's
 *  name in `names`. */
Term
parseTerm(std::string_view piece, std::string_view whole, NameStore &names)
{
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
        size_t dot = piece.find('.');
        if (dot == std::string_view::npos) {
            t.value = parseConstant(piece);
            t.width = -1;
        } else {
            t.value = parseConstant(piece.substr(0, dot));
            std::string_view wtext = piece.substr(dot + 1);
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
        std::string_view name = piece;
        std::string_view fields;
        if (size_t dot = piece.find('.'); dot != std::string_view::npos) {
            name = piece.substr(0, dot);
            fields = piece.substr(dot + 1);
        }
        if (!isValidName(name))
            malformed(whole);
        int32_t from = -1, to = -1;
        if (name.size() < piece.size()) {
            std::string_view fromText = fields, toText;
            bool hasTo = false;
            if (size_t dot = fields.find('.');
                dot != std::string_view::npos) {
                fromText = fields.substr(0, dot);
                toText = fields.substr(dot + 1);
                hasTo = true;
                if (toText.find('.') != std::string_view::npos)
                    malformed(whole);
            }
            if (fromText.empty())
                malformed(whole);
            from = parseNumber(fromText);
            if (hasTo) {
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
        t.ref = names.intern(name);
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
        const size_t comma = text.find(',', start);
        const std::string_view piece = text.substr(
            start, comma == std::string_view::npos ? std::string_view::npos
                                                   : comma - start);
        spec.termPool.push_back(parseTerm(piece, text, spec.names));
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    e.count = static_cast<uint32_t>(spec.termPool.size()) - e.first;
    return e;
}

void
appendExpr(std::string &out, const Spec &spec, Expr expr)
{
    bool firstTerm = true;
    for (const Term &t : spec.terms(expr)) {
        if (!firstTerm)
            out += ',';
        firstTerm = false;
        switch (t.kind) {
          case Term::Kind::Const:
            appendInt(out, t.value);
            if (t.width >= 0) {
                out += '.';
                appendInt(out, t.width);
            }
            break;
          case Term::Kind::BitString:
            out += '#';
            for (int b = t.width - 1; b >= 0; --b)
                out += static_cast<char>('0' + ((t.value >> b) & 1));
            break;
          case Term::Kind::Ref:
            out += spec.name(t.ref);
            if (t.from >= 0) {
                out += '.';
                appendInt(out, t.from);
            }
            if (t.to >= 0) {
                out += '.';
                appendInt(out, t.to);
            }
            break;
        }
    }
}

std::string
exprToString(const Spec &spec, Expr expr)
{
    std::string out;
    appendExpr(out, spec, expr);
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

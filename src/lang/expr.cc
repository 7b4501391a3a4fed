#include "lang/expr.hh"

#include "lang/number.hh"
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

/** Parse one comma-free piece into a Term. */
Term
parseTerm(std::string_view piece, std::string_view whole)
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
            v = v * 2 + (b - '0');
        }
        t.value = v;
        t.width = static_cast<int>(bits.size());
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
            t.width = parseNumber(wtext);
            if (t.width < 0 || t.width > 31)
                malformed(whole);
        }
        return t;
    }

    if (isLetter(c)) {
        // Component reference with optional subfield.
        t.kind = Term::Kind::Ref;
        auto pieces = split(piece, '.');
        if (pieces.size() > 3)
            malformed(whole);
        if (!isValidName(pieces[0]))
            malformed(whole);
        t.ref = pieces[0];
        if (pieces.size() >= 2) {
            if (pieces[1].empty())
                malformed(whole);
            t.from = parseNumber(pieces[1]);
        }
        if (pieces.size() == 3) {
            if (pieces[2].empty())
                malformed(whole);
            t.to = parseNumber(pieces[2]);
            if (t.to < t.from)
                malformed(whole);
        }
        if (t.from > 31 || t.to > 31)
            malformed(whole);
        return t;
    }

    malformed(whole);
}

} // namespace

bool
Expr::isConstant() const
{
    for (const auto &t : terms) {
        if (t.kind == Term::Kind::Ref)
            return false;
    }
    return true;
}

Expr
parseExpr(std::string_view text)
{
    Expr e;
    if (text.empty())
        malformed(text);
    for (const auto &piece : split(text, ','))
        e.terms.push_back(parseTerm(piece, text));
    return e;
}

void
appendExpr(std::string &out, const Expr &expr)
{
    for (size_t i = 0; i < expr.terms.size(); ++i) {
        if (i)
            out += ',';
        const Term &t = expr.terms[i];
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
            out += t.ref;
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
exprToString(const Expr &expr)
{
    std::string out;
    appendExpr(out, expr);
    return out;
}

std::vector<std::string>
referencedNames(const Expr &expr)
{
    std::vector<std::string> names;
    for (const auto &t : expr.terms) {
        if (t.kind == Term::Kind::Ref)
            names.push_back(t.ref);
    }
    return names;
}

} // namespace asim

/**
 * @file
 * ASIM II expressions: bit-field extraction and concatenation.
 *
 * An expression is a comma-separated list of terms. The *rightmost*
 * term occupies the least-significant bits of the result (Figure 3.1:
 * `mem.3.4,#01,count.1` places bit 1 of `count` at position 0, the
 * two-bit string `01` at positions 1..2, and bits 3..4 of `mem` at
 * positions 3..4). Terms are:
 *
 *   - `name`          whole component (consumes the remaining width)
 *   - `name.f`        single bit f of the component
 *   - `name.f.t`      bits f..t (inclusive) of the component
 *   - `number`        constant (consumes the remaining width)
 *   - `number.w`      constant restricted to w bits
 *   - `#bits`         binary string, width = number of digits
 *
 * The total width may not exceed 31 bits ("Too many bits").
 *
 * Terms live in their specification's term array (lang/ast.hh Spec);
 * an Expr is a span of that array and a reference names a component
 * by its NameId in the spec's name store.
 */

#ifndef ASIM_LANG_EXPR_HH
#define ASIM_LANG_EXPR_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lang/names.hh"

namespace asim {

struct Spec;

/** One concatenation term (8 bytes). */
struct Term
{
    enum class Kind : uint8_t
    {
        Const,      ///< numeric constant, optional explicit width
        BitString,  ///< `#0101` — value with intrinsic width
        Ref,        ///< component reference with optional subfield
    };

    Kind kind = Kind::Const;

    /** Explicit width in bits; -1 = unbounded (consumes the rest). */
    int8_t width = -1;

    /** Subfield low bit; -1 = whole component. */
    int8_t from = -1;

    /** Subfield high bit; -1 = single bit (just `from`). */
    int8_t to = -1;

    /** Constant / bit-string value; the referenced component's name
     *  (Kind::Ref). */
    union
    {
        int32_t value = 0;
        NameId ref;
    };

    bool
    operator==(const Term &o) const
    {
        return kind == o.kind && width == o.width && from == o.from &&
               to == o.to &&
               (kind == Kind::Ref ? ref == o.ref : value == o.value);
    }
};

/** A parsed expression: `count` terms of the spec's term array from
 *  `first`, leftmost (most significant) first. */
struct Expr
{
    uint32_t first = 0;
    uint32_t count = 0;

    bool empty() const { return count == 0; }
};

/**
 * Parse one expression token into `spec`'s term array, interning the
 * names it references in `spec`'s name store.
 *
 * @param text the whitespace-free token
 * @throws SpecError on malformed input ("Error. Malformed expression")
 */
Expr parseExpr(std::string_view text, Spec &spec);

/** True if no term of `expr` references a component. */
bool isConstant(const Spec &spec, Expr expr);

/** Render an Expr back to specification syntax (canonical form:
 *  constants in decimal, subfields as `.from[.to]`). */
std::string exprToString(const Spec &spec, Expr expr);

/** The most bytes writeExpr writes for `expr`. */
size_t exprTextBound(const Spec &spec, Expr expr);

/** Write exprToString(spec, expr) to `out`, which has room for
 *  exprTextBound(spec, expr) bytes, and return the end of the text
 *  (lang/writer.cc renders a whole spec into one string this way). */
char *writeExpr(char *out, const Spec &spec, Expr expr);

/** Names of all components referenced by `expr` (with duplicates). */
std::vector<std::string_view> referencedNames(const Spec &spec, Expr expr);

} // namespace asim

#endif // ASIM_LANG_EXPR_HH

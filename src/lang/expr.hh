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
 */

#ifndef ASIM_LANG_EXPR_HH
#define ASIM_LANG_EXPR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace asim {

/** One concatenation term. */
struct Term
{
    enum class Kind
    {
        Const,      ///< numeric constant, optional explicit width
        BitString,  ///< `#0101` — value with intrinsic width
        Ref,        ///< component reference with optional subfield
    };

    Kind kind = Kind::Const;

    /** Constant / bit-string value. */
    int32_t value = 0;

    /** Explicit width in bits; -1 = unbounded (consumes the rest). */
    int width = -1;

    /** Referenced component name (Kind::Ref). */
    std::string ref;

    /** Subfield low bit; -1 = whole component. */
    int from = -1;

    /** Subfield high bit; -1 = single bit (just `from`). */
    int to = -1;

    bool operator==(const Term &) const = default;
};

/** A parsed expression: terms stored leftmost (most significant)
 *  first. Diagnostics render it back with exprToString(). */
struct Expr
{
    std::vector<Term> terms;

    bool empty() const { return terms.empty(); }

    /** True if no term references a component. */
    bool isConstant() const;

    bool
    operator==(const Expr &o) const
    {
        return terms == o.terms;
    }
};

/**
 * Parse one expression token.
 *
 * @param text the whitespace-free token
 * @throws SpecError on malformed input ("Error. Malformed expression")
 */
Expr parseExpr(std::string_view text);

/** Render an Expr back to specification syntax (canonical form:
 *  constants in decimal, subfields as `.from[.to]`). */
std::string exprToString(const Expr &expr);

/** Append exprToString(expr) to `out` (lang/writer.cc renders a whole
 *  spec into one string this way). */
void appendExpr(std::string &out, const Expr &expr);

/** Names of all components referenced by `expr` (with duplicates). */
std::vector<std::string> referencedNames(const Expr &expr);

} // namespace asim

#endif // ASIM_LANG_EXPR_HH

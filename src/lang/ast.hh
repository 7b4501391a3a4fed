/**
 * @file
 * Abstract syntax of an ASIM II specification.
 *
 * A specification (thesis Appendix A/B) consists of:
 *   - a mandatory `#` comment line (echoed into generated code),
 *   - macro definitions (`-name text`, referenced as `~name`),
 *   - an optional cycle count (`= N`),
 *   - a declaration list of component names (suffix `*` = traced),
 *     terminated by `.`,
 *   - component definitions, terminated by `.`:
 *       A name function left right
 *       S name selector value0 value1 ... valuen
 *       M name address data operation number [initial values]
 */

#ifndef ASIM_LANG_AST_HH
#define ASIM_LANG_AST_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/expr.hh"
#include "lang/names.hh"

namespace asim {

/** The three ASIM II primitives. */
enum class CompKind : uint8_t
{
    Alu,
    Selector,
    Memory,
};

/** Printable primitive letter (A/S/M). */
char compKindLetter(CompKind kind);

/** One component definition (32 bytes). Its input expressions are
 *  `numExprs` consecutive entries of the spec's expression array from
 *  `firstExpr`: an ALU's funct, left, right; a selector's index, then
 *  its cases; a memory's address, data, operation. */
struct Component
{
    CompKind kind = CompKind::Alu;
    NameId name = 0;
    uint32_t firstExpr = 0;
    uint32_t numExprs = 0;

    /** Memory: the `numInit` initial values from `firstInit` in the
     *  spec's init array. The spec's negative size ("initialize from
     *  the list") is normalized: memSize is always positive here and
     *  numInit is non-zero iff the spec used a negative size. */
    uint32_t firstInit = 0;
    uint32_t numInit = 0;

    /** Memory: number of cells. */
    int64_t memSize = 0;
};

/** The most memory cells one specification may declare in all. Every
 *  engine instance holds its own copy of every cell (a daemon session,
 *  each batch or campaign instance), so spec text must not be able to
 *  ask for gigabytes: 2^24 cells is 64 MiB of int32 state, far past
 *  any shipped spec, thesis machine or synthetic preset (2^6 cells a
 *  memory). */
inline constexpr int64_t kMaxSpecCells = int64_t{1} << 24;

/** A declaration-list entry: component name plus trace flag. */
struct DeclName
{
    NameId name = 0;
    bool traced = false;

    bool operator==(const DeclName &) const = default;
};

/**
 * A whole parsed specification. Components, expressions, terms,
 * memory initial values and names each live in one flat array of the
 * spec (no heap object per component, expression, term or name);
 * components and expressions refer into them by index.
 */
struct Spec
{
    /** The first-line comment, without the leading `#`. */
    std::string comment;

    /** Cycle count from the `=` directive; meaningful only if
     *  `cyclesSpecified`. The thesis main loop runs while
     *  `cyclecount <= cycles`, i.e. cycles+1 iterations. */
    int64_t cycles = 0;
    bool cyclesSpecified = false;

    std::vector<DeclName> decls;
    std::vector<Component> comps;

    /// @{ The pools components and expressions index.
    std::vector<Expr> exprPool;
    std::vector<Term> termPool;
    std::vector<int32_t> initPool;
    NameStore names;
    /// @}

    /** The spelling of an interned name. */
    std::string_view name(NameId id) const { return names[id]; }

    /** The terms of `e`. */
    std::span<const Term>
    terms(Expr e) const
    {
        return {termPool.data() + e.first, e.count};
    }

    /** Every input expression of `c` (see Component). */
    std::span<const Expr>
    exprs(const Component &c) const
    {
        return {exprPool.data() + c.firstExpr, c.numExprs};
    }

    /** Expression `i` of `c`: ALU 0 funct, 1 left, 2 right; selector
     *  0 index, 1.. cases; memory 0 address, 1 data, 2 operation. */
    Expr expr(const Component &c, uint32_t i) const
    {
        return exprPool[c.firstExpr + i];
    }

    /** A selector's case expressions. */
    std::span<const Expr>
    cases(const Component &c) const
    {
        return exprs(c).subspan(1);
    }

    /** A memory's initial values (empty unless the spec listed them). */
    std::span<const int32_t>
    init(const Component &c) const
    {
        return {initPool.data() + c.firstInit, c.numInit};
    }

    /** Append `terms` to the term array as one expression. */
    Expr addExpr(std::span<const Term> terms);

    /** A component whose input expressions are `exprs` (in Component
     *  order) and, for a memory, whose initial values are `init`: both
     *  are appended to the pools; the caller adds the component to
     *  `comps` (or keeps it, as a module template does). */
    Component makeComponent(CompKind kind, NameId name,
                            std::span<const Expr> exprs,
                            int64_t memSize = 0,
                            std::span<const int32_t> init = {});

    /** Find a component by name; nullptr if absent. */
    const Component *find(std::string_view name) const;
    Component *find(std::string_view name);

    /** The thesis' inclusive loop-iteration count for `= N`. */
    int64_t thesisIterations() const { return cycles + 1; }
};

/** Memory operation bits (thesis Appendix A). */
namespace mem_op {
constexpr int32_t kRead = 0;
constexpr int32_t kWrite = 1;
constexpr int32_t kInput = 2;
constexpr int32_t kOutput = 3;
constexpr int32_t kTraceWrites = 4;
constexpr int32_t kTraceReads = 8;
} // namespace mem_op

} // namespace asim

#endif // ASIM_LANG_AST_HH

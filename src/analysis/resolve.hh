/**
 * @file
 * Semantic resolution of a parsed specification.
 *
 * Resolution assigns storage slots, pre-computes every expression's
 * field masks and shifts (exactly the arithmetic the thesis' `expr`
 * procedure emits: extract with `land`, then `div`/`*` by a power of
 * two to move the field into its concatenation position), orders the
 * combinational network, cross-checks the declaration list against the
 * definitions (thesis `checkdcl`), and validates references.
 *
 * The ResolvedSpec is the single shared input of the interpreter, the
 * bytecode compiler, and both source code generators.
 */

#ifndef ASIM_ANALYSIS_RESOLVE_HH
#define ASIM_ANALYSIS_RESOLVE_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hh"
#include "support/logging.hh"

namespace asim {

/** A fully resolved reference term: value = shift(vars[slot] & mask)
 *  (12 bytes). */
struct ResolvedTerm
{
    int32_t mask = -1;      ///< extraction mask (-1 = whole word)
    int32_t slot = 0;       ///< value slot (ResolvedSpec::latchSlot)
    int8_t shift = 0;       ///< net shift; >0 left, <0 right

    /** True for a bare `name` reference. No accepted subfield has an
     *  all-ones mask: that would take 32 bits. */
    bool whole() const { return mask == -1; }
};

/** A resolved expression: constant part plus `count` shifted reference
 *  terms of the resolved spec's term array from `first`. Terms are
 *  stored leftmost-first (matching source order); evaluation is
 *  `constTotal + sum(shift(var & mask))` in any order since fields
 *  are disjoint. */
struct ResolvedExpr
{
    int32_t constTotal = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    int32_t width = 0;       ///< total bits (<= 31)

    bool isConstant() const { return count == 0; }
};

/** A resolved combinational component (ALU or selector). Its input
 *  expressions are `numExprs` consecutive entries of the resolved
 *  spec's expression array from `firstExpr`: an ALU's funct, left,
 *  right; a selector's index, then its cases. */
struct CombComp
{
    CompKind kind = CompKind::Alu;
    bool functConst = false;  ///< ALU: constant function
    NameId name = 0;
    int slot = 0;        ///< index into MachineState::vars
    int declIndex = 0;   ///< index into ast().comps
    uint32_t firstExpr = 0;
    uint32_t numExprs = 0;
    int32_t functValue = 0;   ///< ALU: the constant function
};

/** A resolved memory. */
struct MemDesc
{
    NameId name = 0;
    int index = 0;       ///< index into MachineState::mems
    int declIndex = 0;

    ResolvedExpr addr, data, opn;
    bool opnConst = false;
    int32_t opnValue = 0;
    int opnWidth = 0;    ///< widthOf(opn) — gates trace codegen

    int64_t size = 0;

    /** The initial values: `numInit` entries of the resolved spec's
     *  init array from `firstInit` (none unless the spec listed them). */
    uint32_t firstInit = 0;
    uint32_t numInit = 0;

    /** Trace-emission decision, derived exactly as the thesis gencode
     *  does from `numberofbits` and constant operations. */
    enum class TraceMode : uint8_t { Never, Always, Runtime };
    TraceMode traceWrites = TraceMode::Never;
    TraceMode traceReads = TraceMode::Never;
};

/** One entry of the per-cycle trace line (declaration-list order). */
struct TraceItem
{
    NameId name = 0;
    int slot = 0; ///< value slot
};

/** The resolved specification. It owns no syntax tree: the few
 *  consumers that walk one (the symbolic interpreter, splice faults)
 *  re-parse the canonical text with ast(). Like the syntax tree it
 *  keeps its expressions, terms, initial values and names in flat
 *  arrays that components index. */
struct ResolvedSpec
{
    /** The first-line comment, without the leading `#`. */
    std::string comment;

    /** Cycle count from the `=` directive; meaningful only if
     *  `cyclesSpecified`. */
    int64_t cycles = 0;
    bool cyclesSpecified = false;

    /** The thesis' inclusive loop-iteration count for `= N`. */
    int64_t thesisIterations() const { return cycles + 1; }

    /** Canonical text of the resolved spec (lang/writer.hh writeSpec)
     *  and its FNV-1a 64 hash, both computed once by resolve(). */
    std::string text;
    uint64_t identity = 0;

    /** Parse `text` back into a syntax tree: the resolved spec's
     *  components in definition order, so CombComp/MemDesc
     *  `declIndex` index its `comps`. */
    Spec ast() const;

    /** Combinational components in evaluation (dependency) order. */
    std::vector<CombComp> comb;

    /** Memories in declaration order (their update order). */
    std::vector<MemDesc> mems;

    /** Starred components, declaration-list order. */
    std::vector<TraceItem> traceList;

    /** Combinational output slots. MachineState::vars holds these
     *  values, then one output latch per memory (latchSlot). */
    int numVarSlots = 0;

    /** The value slot of memory `mem`'s output latch: a reference to
     *  the memory reads it like any combinational output. */
    int latchSlot(int mem) const { return numVarSlots + mem; }

    /// @{ The pools components and expressions index.
    std::vector<ResolvedExpr> exprPool;
    std::vector<ResolvedTerm> termPool;
    std::vector<int32_t> initPool;
    /// @}

    /** Every name of the spec, and what each is bound to (by NameId):
     *  the one index behind every by-name question. */
    NameStore names;
    struct Binding
    {
        CompKind kind = CompKind::Alu;
        int32_t slot = -1;   ///< var slot or memory index; -1 = undefined
    };
    std::vector<Binding> bindings;

    /** The spelling of an interned name. */
    std::string_view name(NameId id) const { return names[id]; }

    /** The terms of `e`. */
    std::span<const ResolvedTerm>
    terms(const ResolvedExpr &e) const
    {
        return {termPool.data() + e.first, e.count};
    }

    /** Every input expression of `c` (see CombComp). */
    std::span<const ResolvedExpr>
    exprs(const CombComp &c) const
    {
        return {exprPool.data() + c.firstExpr, c.numExprs};
    }

    /// @{ An ALU's inputs.
    const ResolvedExpr &funct(const CombComp &c) const
    {
        return exprPool[c.firstExpr];
    }
    const ResolvedExpr &left(const CombComp &c) const
    {
        return exprPool[c.firstExpr + 1];
    }
    const ResolvedExpr &right(const CombComp &c) const
    {
        return exprPool[c.firstExpr + 2];
    }
    /// @}

    /// @{ A selector's index and cases.
    const ResolvedExpr &select(const CombComp &c) const
    {
        return exprPool[c.firstExpr];
    }
    std::span<const ResolvedExpr>
    cases(const CombComp &c) const
    {
        return exprs(c).subspan(1);
    }
    /// @}

    /** A memory's initial values. */
    std::span<const int32_t>
    init(const MemDesc &m) const
    {
        return {initPool.data() + m.firstInit, m.numInit};
    }

    /** What `name` is bound to; nullptr if it names no component. */
    const Binding *binding(std::string_view name) const;

    /** Look up a combinational slot / memory index by name; -1 if the
     *  name is not a component of that class. */
    int varSlot(std::string_view name) const;
    int memIndex(std::string_view name) const;

    /** The value slot `name` reads: its combinational output or its
     *  output latch; -1 if it names no component. */
    int valueSlot(std::string_view name) const;
};

/**
 * Resolve a parsed specification.
 *
 * Linear in the spec's size: names were interned by the parser, so
 * every per-name question, the `checkdcl` cross-check included, is an
 * array lookup by NameId.
 *
 * @param spec parsed spec; borrowed, the result keeps its names and
 *             canonical text
 * @param diag optional warning collector (declared-but-not-defined,
 *             defined-but-not-declared — thesis `checkdcl`)
 * @throws SpecError on duplicate definitions, unresolved references,
 *         too-wide expressions, bad subfields, or circular
 *         combinational dependencies
 */
ResolvedSpec resolve(const Spec &spec, Diagnostics *diag = nullptr);

/** Convenience: parse + resolve in one step. */
ResolvedSpec resolveText(std::string_view text,
                         Diagnostics *diag = nullptr);

/** Resolve expression `expr` of `spec` against an existing
 *  ResolvedSpec, by name, appending its terms to `rs`'s term array
 *  (used by tests and tools). */
ResolvedExpr resolveExpr(const Spec &spec, Expr expr, ResolvedSpec &rs);

/**
 * Stable content identity of a resolved specification: the FNV-1a 64
 * hash of its canonical written form (lang/writer.hh), so the same
 * machine loaded from a file, from text, or re-serialized hashes
 * identically. Used as the checkpoint identity (sim/checkpoint.hh)
 * and as half of the native build cache key (codegen/native.hh).
 * Computed once by resolve(); this returns `rs.identity`.
 */
inline uint64_t
specIdentityHash(const ResolvedSpec &rs)
{
    return rs.identity;
}

} // namespace asim

#endif // ASIM_ANALYSIS_RESOLVE_HH

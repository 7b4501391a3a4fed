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
#include <map>
#include <string>
#include <vector>

#include "lang/ast.hh"
#include "support/logging.hh"

namespace asim {

/** A fully resolved reference term: value = shift(var & mask). */
struct ResolvedTerm
{
    /** Where the referenced value lives. */
    enum class Bank
    {
        Var,      ///< combinational output slot
        MemTemp,  ///< memory output latch (one-cycle delay)
    };

    Bank bank = Bank::Var;
    int slot = 0;        ///< var slot or memory index
    int32_t mask = -1;   ///< extraction mask (-1 = whole word)
    int shift = 0;       ///< net shift; >0 left, <0 right
    int from = 0;        ///< original subfield low bit (for codegen)
    int fieldWidth = 0;  ///< bits contributed to the concatenation
    bool whole = false;  ///< true for a bare `name` reference
};

/** A resolved expression: constant part plus shifted reference terms.
 *  Terms are stored leftmost-first (matching source order); evaluation
 *  is `constTotal + sum(shift(var & mask))` in any order since fields
 *  are disjoint. */
struct ResolvedExpr
{
    int32_t constTotal = 0;
    std::vector<ResolvedTerm> terms;
    int width = 0;           ///< total bits (<= 31)

    bool isConstant() const { return terms.empty(); }
};

/** A resolved combinational component (ALU or selector). */
struct CombComp
{
    CompKind kind = CompKind::Alu;
    std::string name;
    int slot = 0;        ///< index into MachineState::vars
    int declIndex = 0;   ///< index into ast().comps

    /// @{ ALU
    ResolvedExpr funct, left, right;
    bool functConst = false;
    int32_t functValue = 0;
    /// @}

    /// @{ Selector
    ResolvedExpr select;
    std::vector<ResolvedExpr> cases;
    /// @}
};

/** A resolved memory. */
struct MemDesc
{
    std::string name;
    int index = 0;       ///< index into MachineState::mems
    int declIndex = 0;

    ResolvedExpr addr, data, opn;
    bool opnConst = false;
    int32_t opnValue = 0;
    int opnWidth = 0;    ///< widthOf(opn) — gates trace codegen

    int64_t size = 0;
    std::vector<int32_t> init;

    /** Trace-emission decision, derived exactly as the thesis gencode
     *  does from `numberofbits` and constant operations. */
    enum class TraceMode { Never, Always, Runtime };
    TraceMode traceWrites = TraceMode::Never;
    TraceMode traceReads = TraceMode::Never;
};

/** One entry of the per-cycle trace line (declaration-list order). */
struct TraceItem
{
    std::string name;
    bool isMem = false;
    int slot = 0; ///< var slot or memory index
};

/** The resolved specification. It owns no syntax tree: the few
 *  consumers that walk one (the symbolic interpreter, splice faults)
 *  re-parse the canonical text with ast(). */
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

    int numVarSlots = 0;

    /** Look up a combinational slot / memory index by name; -1 if the
     *  name is not a component of that class. */
    int varSlot(std::string_view name) const;
    int memIndex(std::string_view name) const;

    std::map<std::string, int, std::less<>> varSlots;
    std::map<std::string, int, std::less<>> memIndexes;
};

/**
 * Resolve a parsed specification.
 *
 * Linear in the spec's size: every per-name question, the `checkdcl`
 * cross-check included, is a hash probe into one name index.
 *
 * @param spec parsed spec; borrowed, the result keeps only its
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

/** Resolve a single expression against an existing ResolvedSpec
 *  (used by tests and tools). */
ResolvedExpr resolveExpr(const Expr &expr, const ResolvedSpec &rs);

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

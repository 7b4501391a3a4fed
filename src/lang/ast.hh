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
#include <string>
#include <vector>

#include "lang/expr.hh"

namespace asim {

/** The three ASIM II primitives. */
enum class CompKind
{
    Alu,
    Selector,
    Memory,
};

/** Printable primitive letter (A/S/M). */
char compKindLetter(CompKind kind);

/** One component definition. Only the fields for `kind` are valid. */
struct Component
{
    CompKind kind = CompKind::Alu;
    std::string name;

    /// @{ ALU fields
    Expr funct;
    Expr left;
    Expr right;
    /// @}

    /// @{ Selector fields
    Expr select;
    std::vector<Expr> cases;
    /// @}

    /// @{ Memory fields
    Expr addr;
    Expr data;
    Expr opn;
    /** Number of cells. The spec's negative size ("initialize from the
     *  list") is normalized: size is always positive here and
     *  `init` is non-empty iff the spec used a negative size. */
    int64_t memSize = 0;
    std::vector<int32_t> init;
    /// @}
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
    std::string name;
    bool traced = false;

    bool operator==(const DeclName &) const = default;
};

/** A whole parsed specification. */
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

/**
 * @file
 * Shared code-generation infrastructure for the Pascal and C++
 * backends.
 *
 * Both backends render resolved expressions with the exact arithmetic
 * the thesis' `expr` procedure emits: extract a field with
 * `land(value, mask)`, then move it into its concatenation position by
 * multiplying or dividing by a power of two, and join fields with `+`
 * (rightmost term first, constants last) — e.g.
 * `land(ljbrom, 256) div 256 + 12`.
 */

#ifndef ASIM_CODEGEN_CODEGEN_HH
#define ASIM_CODEGEN_CODEGEN_HH

#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "lang/alu_ops.hh"

namespace asim {

/** Options shared by both source backends. */
struct CodegenOptions
{
    /** Inline ALUs with a constant function (§4.4). */
    bool inlineConstAlu = true;

    /** Specialize memories with a constant operation (§4.4). */
    bool specializeConstMem = true;

    /** Emit the per-cycle trace line and traced read/write messages.
     *  Disabling reproduces a "production" simulator build (ablation
     *  for the benches; the thesis always traced). */
    bool emitTrace = true;

    /** Pascal only: emit the vestigial `data<name> := temp<name>`
     *  latch exactly as Appendix E does (it is never read). */
    bool emitDataLatchQuirk = true;

    /** C++ program only: emit a machine-readable dump of the machine
     *  state (`STATE_V <slot> <value>`, `STATE_M <index> <temp> <adr>
     *  <opn>`, `STATE_C <index> <cell> <value>`, terminated by
     *  `STATE_END`): on stderr after the one-shot simulation loop,
     *  or as the `STATE` command's payload in serve mode. */
    bool emitStateDump = false;

    /** C++ program only: emit the `--serve` persistent command loop
     *  of `asim2c --serve`. A simulator built with this option,
     *  launched as `simulator --serve`, reads line-oriented commands
     *  on stdin (`INPUT <n>`, `RUN <n>`, `RESET`, `STATE`,
     *  `SNAPSHOT`, `RESTORE <n>`, `STATS`, `QUIT`) and answers each
     *  with `OK <cycle> <ns> <bytes>\n` followed by exactly <bytes>
     *  of payload on stdout. SNAPSHOT is STATE plus the scripted-
     *  input cursor (`STATE_I <ops> <bytepos>`); RESTORE takes a
     *  length-framed payload in the same line format (plus
     *  `STATE_CYC <n>`) and overwrites state, cycle, and input
     *  cursor. The one-shot `simulator [cycles]` entry point is kept
     *  unchanged. The native engine does not use it: it loads the
     *  library form (generateCppLibrary) in process. */
    bool emitServeLoop = false;

    /** ALU shift-left semantics baked into the generated dologic. */
    AluSemantics aluSemantics = AluSemantics::Thesis;

    /** Generated program name (Pascal `program <name>`). */
    std::string programName = "simulator";
};

/** Name tables + expression rendering shared by the backends. */
class CodegenContext
{
  public:
    /**
     * @param rs resolved spec
     * @param varPrefix prefix for combinational outputs and memory
     *        cell arrays (the thesis used `ljb`)
     * @param tempPrefix prefix for memory output latches (`temp`)
     */
    CodegenContext(const ResolvedSpec &rs, std::string varPrefix,
                   std::string tempPrefix);

    const ResolvedSpec &rs() const { return rs_; }

    /** Name of combinational slot `slot`'s variable. */
    std::string varName(int slot) const;

    /** Name of memory `idx`'s cell array. */
    std::string memArrayName(int idx) const;

    /** Name of memory `idx`'s output latch. */
    std::string tempName(int idx) const;

    /** Name of the variable holding value slot `slot`: a
     *  combinational output or a memory's output latch. */
    std::string valueName(int slot) const;

    /// @{ The plain component name of a resolved component or trace
    /// item.
    const std::string &name(const CombComp &c) const
    {
        return slotNames_[c.slot];
    }
    const std::string &name(const MemDesc &m) const
    {
        return slotNames_[rs_.latchSlot(m.index)];
    }
    const std::string &name(const TraceItem &item) const
    {
        return slotNames_[item.slot];
    }
    /// @}

    /**
     * Render a resolved expression.
     *
     * @param e the expression
     * @param divKeyword the integer division operator (`div` / `/`)
     */
    std::string renderExpr(const ResolvedExpr &e,
                           const std::string &divKeyword) const;

    /** Wrap a rendered expression in parentheses only when it is a
     *  multi-term sum (single-term operands keep the exact thesis
     *  output shape; multi-term operands stay correct under operator
     *  precedence — the 1986 generator emitted them bare). */
    static std::string paren(const std::string &rendered);

  private:
    const ResolvedSpec &rs_;
    std::string varPrefix_;
    std::string tempPrefix_;
    /** Component names by value slot (ResolvedSpec::latchSlot). */
    std::vector<std::string> slotNames_;
};

/** Generate the Appendix-E-style Pascal program. */
std::string generatePascal(const ResolvedSpec &rs,
                           const CodegenOptions &opts = {});

/** Generate the equivalent standalone C++ program. The program takes
 *  the cycle count as argv[1] (defaulting to the spec's `=` value),
 *  runs `cycles+1` loop iterations exactly like the thesis' Pascal,
 *  writes trace/I/O to stdout, and prints `SIM_NS=<ns>` (the simulation
 *  loop's own duration) to stderr. */
std::string generateCpp(const ResolvedSpec &rs,
                        const CodegenOptions &opts = {});

/** Generate the in-process library form of the same simulator: the
 *  program's cycle body behind the NativeCtx ABI of
 *  codegen/native.hh, with `<stdint.h>` as its only include and one
 *  exported `asim_run`. Honors inlineConstAlu, specializeConstMem,
 *  emitTrace, and aluSemantics; the program-only options are
 *  ignored. */
std::string generateCppLibrary(const ResolvedSpec &rs,
                               const CodegenOptions &opts = {});

} // namespace asim

#endif // ASIM_CODEGEN_CODEGEN_HH

/**
 * @file
 * C++ backend.
 *
 * Emits the cycle body once, in the shape of the thesis' generated
 * Pascal (a variable per combinational output; temp/adr/opn latches
 * and a cell array per memory; the per-cycle body in one flat
 * docycle()), and wraps it in one of two forms that differ only in
 * their prologue and helpers:
 *
 *  - the **program** (generateCpp): a standalone, dependency-free
 *    translation unit with the state in statics, stdio I/O, printed
 *    traces, and `exit(2)` on a runtime fault. With
 *    CodegenOptions::emitServeLoop it also carries the `--serve`
 *    command loop of `asim2c --serve`;
 *  - the **library** (generateCppLibrary): `<stdint.h>` only, no
 *    mutable statics, one exported `asim_run(ctx, n)`, and no
 *    reference to a libc or libstdc++ symbol, so it links without
 *    either. The state lives in the host's arrays, reached through
 *    the ctx pointers; I/O and trace events call host callbacks; a
 *    runtime fault returns a code and names its component in the ctx
 *    (the in-process native engine's ABI, DESIGN.md §5).
 *
 * A selector whose cases are all constants (a ROM, thesis §4.4) is a
 * `static const` table behind one bounds check; any other selector is
 * a `switch`.
 *
 * Output formats (trace lines, memory-mapped I/O) match the library
 * engines byte-for-byte so the execution systems can be compared
 * directly. Compile either form with `g++ -O2 -fwrapv` (the library
 * adds `-fPIC -shared -nodefaultlibs`): the value model is wrapping
 * 32-bit two's-complement arithmetic, and -fwrapv makes the emitted
 * `+`/`-`/`*` expressions implement it exactly.
 */

#ifndef ASIM_CODEGEN_CPP_BACKEND_HH
#define ASIM_CODEGEN_CPP_BACKEND_HH

#include "codegen/codegen.hh"

namespace asim {

/** Implementation class behind generateCpp()/generateCppLibrary(). */
class CppBackend
{
  public:
    CppBackend(const ResolvedSpec &rs, const CodegenOptions &opts,
               bool library = false);

    /** Generate the complete translation unit. */
    std::string generate();

  private:
    std::string expr(const ResolvedExpr &e) const;
    std::string pf() const;
    void emitHeader();
    void emitState();
    void emitServeHelpers();
    void emitLogicHelpers();
    void emitProgramHelpers();
    void emitInitValues();
    void emitResetState();
    void emitLibraryHeader();
    void emitLibraryPrologue();
    void emitLibraryEntry();
    void emitAlu(const CombComp &c);
    void emitSelector(const CombComp &c);
    void emitMemoryLatches();
    void emitMemoryUpdate(const MemDesc &m);
    void emitMemoryTraces(const MemDesc &m);
    void emitDoCycle();
    void emitStateDump();
    void emitRestoreState();
    void emitServeLoop();
    void emitMain();

    const ResolvedSpec &rs_;
    CodegenOptions opts_;
    CodegenContext ctx_;
    bool library_;
    std::string out_;

    void ln(const std::string &s) { out_ += s; out_ += '\n'; }
};

} // namespace asim

#endif // ASIM_CODEGEN_CPP_BACKEND_HH

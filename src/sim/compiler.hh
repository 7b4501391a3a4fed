/**
 * @file
 * Bytecode compiler: ResolvedSpec -> Program.
 */

#ifndef ASIM_SIM_COMPILER_HH
#define ASIM_SIM_COMPILER_HH

#include "analysis/resolve.hh"
#include "sim/bytecode.hh"
#include "sim/engine.hh"

namespace asim {

/**
 * Compile a resolved specification to VM bytecode.
 *
 * @param rs the resolved specification
 * @param opts optimization switches (all enabled by default; the
 *        ablation benches toggle them individually)
 * @param tracingPossible if false (no trace sink will ever be
 *        attached), trace checks are compiled out entirely
 * @throws SimError when the spec has more than 65536 var slots or
 *         memories (Instr::idx numbers them in 16 bits)
 */
Program compileProgram(const ResolvedSpec &rs,
                       const CompilerOptions &opts = {},
                       bool tracingPossible = true);

} // namespace asim

#endif // ASIM_SIM_COMPILER_HH

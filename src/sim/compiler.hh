/**
 * @file
 * Bytecode compiler: ResolvedSpec -> Program.
 */

#ifndef ASIM_SIM_COMPILER_HH
#define ASIM_SIM_COMPILER_HH

#include "analysis/resolve.hh"
#include "sim/bytecode.hh"

namespace asim {

/** Empty: the compiler runs one fixed pipeline. Kept only because
 *  callers outside `src/` still pass `CompilerOptions{}`. */
struct CompilerOptions
{};

/**
 * Compile a resolved specification to VM bytecode in one emit stage
 * (every §4.4 constant optimization and the superinstructions; see
 * sim/bytecode.hh).
 *
 * @param rs the resolved specification
 * @param tracingPossible if false (no trace sink will ever be
 *        attached), trace checks are compiled out entirely
 * @throws SimError when the spec has more than 65536 value slots
 *         (Instr::idx numbers them in 16 bits)
 */
Program compileProgram(const ResolvedSpec &rs,
                       const CompilerOptions & = {},
                       bool tracingPossible = true);

} // namespace asim

#endif // ASIM_SIM_COMPILER_HH

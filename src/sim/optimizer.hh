/**
 * @file
 * Link + optimize stage of the bytecode compiler: builds the fused
 * whole-cycle stream the VM executes (see sim/bytecode.hh for the
 * two-stage pipeline overview and docs/INTERNALS.md for the design).
 */

#ifndef ASIM_SIM_OPTIMIZER_HH
#define ASIM_SIM_OPTIMIZER_HH

#include "analysis/resolve.hh"
#include "sim/bytecode.hh"
#include "sim/engine.hh"

namespace asim {

/**
 * Populate `prog.cycle` / `prog.cycleJumpTable` / `prog.opt` from the
 * canonical per-phase streams:
 *
 *  1. link comb + TraceCycle + latch + update + EndCycle into one
 *     stream (always — the VM executes nothing else);
 *  2. elide statically safe memory bounds checks
 *     (opts.elideRedundantChecks);
 *  3. fuse adjacent pairs into superinstructions
 *     (opts.fuseSuperinstructions);
 *  4. remove dead scratch-register stores
 *     (opts.eliminateDeadStores);
 *  5. compact Nops out and remap every jump target.
 *
 * The canonical phase streams are left untouched.
 */
void linkAndOptimize(Program &prog, const ResolvedSpec &rs,
                     const CompilerOptions &opts);

/**
 * True when every value of `e` provably lies in [0, limit): the
 * constant part is non-negative, every term is a masked (bounded,
 * non-negative) field, and the running maximum never reaches 2^31
 * (so the wrapping adds cannot wrap) nor `limit`. Discharges memory
 * bounds checks here and marks the comb components that cannot fault
 * in the compiler's schedule.
 */
bool exprBelow(const ResolvedExpr &e, int64_t limit);

} // namespace asim

#endif // ASIM_SIM_OPTIMIZER_HH

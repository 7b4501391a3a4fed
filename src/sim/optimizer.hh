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

namespace asim {

/**
 * Populate `prog.cycle` / `prog.opt` from the canonical per-phase
 * streams:
 *
 *  1. link comb + TraceCycle + latch + update + EndCycle into the
 *     one stream the VM executes;
 *  2. elide statically safe memory bounds checks;
 *  3. fuse adjacent pairs into superinstructions;
 *  4. remove dead scratch-register stores;
 *  5. compact Nops out and remap every MemGenPre skip target;
 *  6. merge generic memory ops and the latch phase into single
 *     dispatches, and compact again.
 *
 * Every pass always runs. The canonical phase streams are left
 * untouched.
 */
void linkAndOptimize(Program &prog, const ResolvedSpec &rs);

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

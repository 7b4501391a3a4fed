/**
 * @file
 * Fault injection (thesis §2.3.2): the three fault policies and the
 * shared fault grammar.
 *
 * The thesis names fault injection — "inserting a fault in the
 * specification to cause errors (by design) in the simulation run" —
 * as a core application of a CHDL simulator. This module holds the
 * fixed policy table, the spec splice and the fault grammar; the
 * state-injection primitive and the campaign driver that fans
 * injections out at scale live in analysis/campaign.hh.
 *
 * A policy ("set0", "set1", "toggle") is one row of kFaultPolicies:
 * an ALU function (AND, OR, XOR) and a mask on bit b (~2^b for set0,
 * 2^b for set1 and toggle). Both injection sites derive from the
 * row, so they cannot disagree:
 *
 *  - **spec splice** (permanent stuck-at): the faulted component is
 *    renamed and an ALU computing `shadow <function> mask` is
 *    spliced in under the original name. Every consumer
 *    transparently observes the faulty value; timing is unchanged
 *    for combinational victims (the splice is itself combinational).
 *  - **state injection** (transient upset): one state word — a
 *    memory cell or output latch — becomes `dologic(function, word,
 *    mask)` at a cycle boundary (an SEU-style bit flip).
 *    Combinational outputs are recomputed every cycle, so only
 *    memory state is a valid target.
 *
 * The textual fault grammar shared by `asim-run --inject=`, the
 * batch-manifest `fault=` key, and campaign reports is
 *
 *     component[cell]:bit:mode[@cycle]
 *
 * where `[cell]` (optional) addresses one memory cell, `bit` is the
 * target bit (0..30), `mode` names a policy, and `@cycle` (optional)
 * selects transient state injection at that cycle boundary instead
 * of a permanent spec splice. parseFaultSite() / validateFaultSite()
 * are the single parse/validation path, so a bad component, bit,
 * cell, or mode produces the same SpecError text everywhere.
 */

#ifndef ASIM_ANALYSIS_FAULT_HH
#define ASIM_ANALYSIS_FAULT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "lang/alu_ops.hh"
#include "lang/ast.hh"

namespace asim {

struct ResolvedSpec;

/** One fault policy; see the file comment for its two sites. */
struct FaultPolicy
{
    std::string_view name;
    int32_t function; ///< kAluAnd, kAluOr or kAluXor
    bool clears;      ///< the mask is ~2^b rather than 2^b

    int32_t mask(int bit) const
    {
        return clears ? ~highbit(bit) : highbit(bit);
    }

    /** `word` with bit `bit` (0..30) perturbed: what the splice's ALU
     *  computes from the healthy value. */
    int32_t apply(int32_t word, int bit) const
    {
        return dologic(function, word, mask(bit));
    }
};

/** The policies, sorted by name (the `--list-injectors` order). */
inline constexpr FaultPolicy kFaultPolicies[] = {
    {"set0", kAluAnd, true},
    {"set1", kAluOr, false},
    {"toggle", kAluXor, false},
};

/** The policy named `name`. @throws SpecError naming the policies
 *  when `name` is unknown */
const FaultPolicy &faultPolicy(std::string_view name);

/** One parsed fault: where, which bit, which policy, and when. */
struct FaultSite
{
    std::string component;

    /** Memory cell address; -1 targets the whole component (a
     *  combinational output for splices, a memory's output latch for
     *  state injection). */
    int64_t cell = -1;

    int bit = 0;

    /** Policy name (kFaultPolicies). */
    std::string mode = "toggle";

    /** State-injection cycle boundary; meaningful when atCycle. The
     *  fault perturbs the state *before* the first cycle executed at
     *  or after this boundary. */
    uint64_t cycle = 0;

    /** true = transient state injection at `cycle`; false = permanent
     *  spec splice. */
    bool atCycle = false;
};

/**
 * Spec-splice site: return a copy of `spec` where bit `site.bit` of
 * component `site.component` is permanently perturbed under
 * `site.mode` (the cell and cycle are not read).
 *
 * The victim is renamed `<comp>FAULTED` and an ALU is spliced in
 * under the original name computing `shadow <function> mask`. For a
 * memory victim the splice observes the output latch, adding one
 * combinational stage but no extra cycle of delay.
 *
 * @throws SpecError if the policy is unknown, the component does not
 *         exist, the bit is out of range, or `<comp>FAULTED` already
 *         exists
 */
Spec spliceFault(const Spec &spec, const FaultSite &site);

/**
 * Parse `component[cell]:bit:mode[@cycle]` (see file comment).
 * Validates only what needs no specification: the grammar and the bit
 * range. @throws SpecError with the shared error texts
 */
FaultSite parseFaultSite(const std::string &text);

/** Render a FaultSite back into the canonical grammar (the form
 *  parseFaultSite accepts; used for labels and campaign reports). */
std::string formatFaultSite(const FaultSite &site);

/**
 * Validate a parsed fault against a resolved specification: the
 * component exists, the mode is registered, cell faults address a
 * real memory cell, and state injection (`@cycle`) targets memory
 * (combinational outputs are recomputed every cycle and hold no
 * state). @throws SpecError with the shared error texts
 */
void validateFaultSite(const ResolvedSpec &rs, const FaultSite &site);

} // namespace asim

#endif // ASIM_ANALYSIS_FAULT_HH

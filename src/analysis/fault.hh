/**
 * @file
 * Fault injection (thesis §2.3.2) behind a pluggable injector policy.
 *
 * The thesis names fault injection — "inserting a fault in the
 * specification to cause errors (by design) in the simulation run" —
 * as a core application of a CHDL simulator. This module provides the
 * injection *policies* and the shared fault grammar; the campaign
 * driver that fans injections out at scale lives in
 * analysis/campaign.hh.
 *
 * A FaultInjector is one bit-level perturbation policy ("set0",
 * "set1", "toggle") usable at two sites:
 *
 *  - **spec splice** (permanent stuck-at): the faulted component is
 *    renamed and an ALU is spliced in under the original name that
 *    forces/flips one output bit. Every consumer transparently
 *    observes the faulty value; timing is unchanged for combinational
 *    victims (the splice is itself combinational).
 *  - **state injection** (transient upset): one word of a saved
 *    EngineSnapshot — a memory cell or output latch — is perturbed at
 *    a cycle boundary (an SEU-style bit flip). Combinational outputs
 *    are recomputed every cycle, so only memory state is a valid
 *    target.
 *
 * Injectors are string-keyed in a process-wide registry mirroring the
 * engine registry idiom (sim/simulation.hh), so campaigns, the CLI,
 * and batch manifests name policies uniformly and new policies bolt
 * on without touching call sites.
 *
 * The textual fault grammar shared by `asim-run --inject=`, the
 * batch-manifest `fault=` key, and campaign reports is
 *
 *     component[cell]:bit:mode[@cycle]
 *
 * where `[cell]` (optional) addresses one memory cell, `bit` is the
 * target bit (0..30), `mode` is a registry key, and `@cycle`
 * (optional) selects transient state injection at that cycle boundary
 * instead of a permanent spec splice. parseFaultSite() /
 * validateFaultSite() are the single parse/validation path, so a bad
 * component, bit, cell, or mode produces the same SpecError text
 * everywhere.
 */

#ifndef ASIM_ANALYSIS_FAULT_HH
#define ASIM_ANALYSIS_FAULT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hh"

namespace asim {

struct ResolvedSpec;

/** One bit-level fault policy; see the file comment for the two
 *  injection sites. Implementations are stateless and shared. */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /** Registry key ("set0", "set1", "toggle"). */
    virtual const std::string &name() const = 0;

    /** State-injection site: return `value` with bit `bit` perturbed
     *  under this policy. `bit` must be in 0..30 (31-bit words,
     *  support/bitops.hh). */
    virtual int32_t apply(int32_t value, int bit) const = 0;

    /**
     * Spec-splice site: return a copy of `spec` where bit `bit` of
     * component `comp` is permanently perturbed under this policy.
     *
     * The victim is renamed `<comp>FAULTED` and an ALU is spliced in
     * under the original name computing `shadow <op> mask`. For a
     * memory victim the splice observes the output latch, adding one
     * combinational stage but no extra cycle of delay.
     *
     * @throws SpecError if `comp` does not exist, `bit` is out of
     *         range, or `<comp>FAULTED` already exists
     */
    virtual Spec splice(const Spec &spec, const std::string &comp,
                        int bit) const;

  protected:
    /// @{ The ALU function and right-operand mask the default
    /// splice() wires in: `faulted = shadow <aluOp> mask(bit)`.
    virtual int32_t spliceAluOp() const = 0;
    virtual int32_t spliceMask(int bit) const = 0;
    /// @}
};

/** String-keyed table of fault policies, mirroring EngineRegistry. */
class FaultInjectorRegistry
{
  public:
    /** The process-wide registry, pre-populated with "set0" (stuck-
     *  at-0), "set1" (stuck-at-1), and "toggle" (bit flip / XOR). */
    static FaultInjectorRegistry &global();

    /** Register a policy under injector->name().
     *  @throws SpecError on a duplicate name */
    void add(std::unique_ptr<FaultInjector> injector);

    bool contains(std::string_view name) const;

    /** Look up a policy by name. @throws SpecError naming the
     *  registered policies when `name` is unknown */
    const FaultInjector &get(std::string_view name) const;

    /** All registered policy names, sorted. */
    std::vector<std::string> list() const;

  private:
    std::map<std::string, std::unique_ptr<FaultInjector>, std::less<>>
        entries_;
};

/** One parsed fault: where, which bit, which policy, and when. */
struct FaultSite
{
    std::string component;

    /** Memory cell address; -1 targets the whole component (a
     *  combinational output for splices, a memory's output latch for
     *  state injection). */
    int64_t cell = -1;

    int bit = 0;

    /** FaultInjectorRegistry key. */
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

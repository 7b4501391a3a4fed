/**
 * @file
 * Monte-Carlo fault-injection campaigns (thesis §2.3.2 at scale).
 *
 * A campaign answers "how vulnerable is each component of this
 * machine to a bit upset?":
 *
 *  1. **Golden run** — simulate the healthy machine once, recording
 *     the reference final state / output / stop cycle at the
 *     horizon (the brute-force fan-out also leaves a durable
 *     checkpoint, sim/checkpoint.hh, at the golden cycle).
 *  2. **Sampling** — draw `runs` faults with a seed-driven SplitMix64
 *     stream (support/rand.hh; no global RNG). A transient campaign
 *     flips one sampled bit of one sampled state word (memory cell or
 *     output latch) at one sampled cycle in [goldenCycle, horizon); a
 *     splice campaign samples a permanent stuck-at splice.
 *  3. **Lockstep** — the golden run's second half carries every
 *     transient injection: parked while its state is the golden
 *     run's but for some memory cells, simulated (serially) from the
 *     golden run's read of one of them until it equals the golden
 *     run again but for cells, or is decided (DESIGN.md §10). Splice
 *     instances run on BatchRunner from cycle zero (the spliced spec
 *     cannot restore the healthy checkpoint: its hash differs).
 *  4. **Classify** — diff every instance against the golden
 *     reference (see FaultOutcome for the contract, DESIGN.md §10
 *     for the rationale) and aggregate per-component counts.
 *
 * The report is deterministic: each injection's stream derives from
 * (seed, index) alone and records keep index order, so
 * CampaignResult::json() is byte-identical across `--threads=1/2/hw`
 * and across reruns with the same seed (the JSON carries no timings
 * or paths; wall-clock lives in the human table only).
 *
 * This header lives in analysis/ beside the fault policies it
 * applies; it is compiled into the sim library (CMakeLists) because
 * the runner and the state-injection primitive drive sim-layer
 * machinery (Simulation, MachineState, BatchRunner, checkpoints).
 */

#ifndef ASIM_ANALYSIS_CAMPAIGN_HH
#define ASIM_ANALYSIS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault.hh"
#include "sim/batch.hh"

namespace asim {

/** What one injected fault did to the run, diffed against the golden
 *  reference. Precedence: EngineFault > Hang > Masked/Sdc. */
enum class FaultOutcome
{
    /** The run completed like the golden one: same stop cycle, same
     *  final machine state, same output text. The upset was
     *  overwritten or never observed. */
    Masked,

    /** The run completed but its final state, output, or stop cycle
     *  differs from the golden reference — silent data corruption. */
    Sdc,

    /** The simulator itself faulted (SimError) — e.g. the flipped
     *  bit formed an out-of-range memory operation. */
    EngineFault,

    /** A watchpoint campaign's instance never reached the completion
     *  watchpoint within horizon + hangBudget cycles. */
    Hang,
};

/** Report key: "masked", "sdc", "fault", "hang". */
const char *faultOutcomeName(FaultOutcome outcome);

/** Everything configuring one campaign. */
struct CampaignOptions
{
    /** Spec source, engine, compiler flags, I/O. Interactive I/O is
     *  refused (instances have their own I/O); trace wiring is ignored
     *  — campaign instances never trace. */
    SimulationOptions base;

    /** Injections to run. */
    uint64_t runs = 1000;

    /** Sampling seed; same seed = byte-identical report. */
    uint64_t seed = 1;

    /** Cycle of the golden checkpoint, and the lower bound of
     *  sampled injection cycles. 0 = horizon / 2. Ignored (forced to
     *  0) by splice campaigns. */
    uint64_t goldenCycle = 0;

    /** Run length; 0 = the spec's `=` count (an error when the spec
     *  names none). */
    uint64_t horizon = 0;

    /** Fault policy (kFaultPolicies) applied to every sampled site. */
    std::string injector = "toggle";

    /** Sample permanent spec splices (re-run from cycle zero)
     *  instead of transient state upsets (golden restore). */
    bool splice = false;

    /** Optional completion watchpoint: the golden run must reach
     *  `watchName == watchValue` by the horizon; instances that
     *  don't within horizon + hangBudget classify as Hang. Without
     *  it every instance runs exactly to the horizon and Hang cannot
     *  occur. */
    std::string watchName;
    int32_t watchValue = 0;

    /** Extra cycles past the horizon a watchpoint instance may use
     *  before it counts as hung; 0 = horizon (i.e. 2x slack). */
    uint64_t hangBudget = 0;

    /** BatchRunner threads of splice and brute-force campaigns (0 =
     *  hardware concurrency); CampaignRunner runs transient ones on one. */
    unsigned threads = 0;

    /** Directory for the golden checkpoint, which only the
     *  brute-force fan-out (runBruteForceCampaign on a transient
     *  campaign) writes and restores; empty = a temporary directory
     *  cleaned up after the run. */
    std::string workDir;
};

/** Outcome counters for one component (or the whole campaign). */
struct CampaignCounts
{
    uint64_t injections = 0;
    uint64_t masked = 0;
    uint64_t sdc = 0;
    uint64_t fault = 0;
    uint64_t hang = 0;

    void add(FaultOutcome outcome);

    /** Fraction of injections that were not masked. */
    double vulnerability() const
    {
        return injections == 0
                   ? 0.0
                   : static_cast<double>(injections - masked) /
                         static_cast<double>(injections);
    }
};

/** One injection's sampled fault and classified outcome. */
struct CampaignRecord
{
    std::string site;      ///< canonical fault text (fault grammar)
    std::string component; ///< aggregation key
    FaultOutcome outcome = FaultOutcome::Masked;
    uint64_t cyclesRun = 0;
    std::string fault;     ///< SimError text for EngineFault
};

/** A completed campaign. */
struct CampaignResult
{
    /// @{ Echo of the effective configuration
    uint64_t runs = 0;
    uint64_t seed = 0;
    std::string injector;
    std::string engine;
    bool splice = false;
    uint64_t goldenCycle = 0;
    uint64_t horizon = 0;
    uint64_t hangBudget = 0;
    std::string watchName;
    int32_t watchValue = 0;
    /// @}

    /** Golden reference stop cycle (= horizon, or the watchpoint-hit
     *  cycle). */
    uint64_t goldenCycles = 0;

    CampaignCounts total;

    /** Per-component counters, sorted by component name. Cell and
     *  latch faults aggregate under their memory's name. */
    std::vector<std::pair<std::string, CampaignCounts>> components;

    /** Per-injection records in sampling (index) order. */
    std::vector<CampaignRecord> records;

    /// @{ Timing — table only, never in json()
    double seconds = 0;
    unsigned threads = 0;
    /// @}

    /** Cycles a transient CampaignRunner::run simulated on woken
     *  instances — a work count, in neither json() nor table(). */
    uint64_t instanceCycles = 0;

    /** Human summary table (vulnerability per component). */
    std::string table() const;

    /** Deterministic JSON report: configuration, totals,
     *  per-component counts, and per-injection records — no
     *  timings, thread counts, or paths (byte-identical across
     *  thread counts and reruns). */
    std::string json() const;
};

/** See the file comment. */
class CampaignRunner
{
  public:
    /** Validates nothing yet; configuration errors (bad spec,
     *  unknown injector, horizon without a cycle count, interactive
     *  I/O...) throw from run(). */
    explicit CampaignRunner(CampaignOptions opts);

    CampaignResult run();

  private:
    CampaignOptions opts_;
};

/**
 * The brute-force campaign: every injection runs as one simulated
 * instance, from the golden checkpoint with its @cycle fault armed
 * (transient) or from cycle zero (splice). CampaignRunner::run()
 * takes this path for splice campaigns; for transient ones it is the
 * reference whose report the golden run's decisions reproduce byte
 * for byte (tests/sim/campaign_test.cc).
 */
CampaignResult runBruteForceCampaign(const CampaignOptions &opts);

/**
 * State-injection site: perturb one word of `state` in place under
 * `site.mode` — memory cell `component[cell]`, or the output latch
 * when site.cell < 0. The one state-injection primitive, shared by
 * Simulation's @cycle handling and the campaign lockstep. @return the
 * word's value before. @throws SpecError when the policy is unknown,
 * the component holds no state or the cell is out of range
 */
int32_t injectFault(MachineState &state, const ResolvedSpec &rs,
                    const FaultSite &site);

/**
 * The deterministic state-site universe a transient campaign samples
 * from: for each memory of `rs` in index order, the output latch
 * (cell -1) followed by every cell. @return the number of sites
 */
uint64_t stateSiteCount(const ResolvedSpec &rs);

/** Site `index` (0 .. stateSiteCount-1) of the universe above, as a
 *  partially filled FaultSite (component + cell). */
FaultSite stateSiteAt(const ResolvedSpec &rs, uint64_t index);

} // namespace asim

#endif // ASIM_ANALYSIS_CAMPAIGN_HH

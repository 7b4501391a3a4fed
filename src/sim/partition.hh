/**
 * @file
 * Intra-spec parallelism: bulk-synchronous partitioned execution of
 * one large design (Manticore/GSIM-style; DESIGN.md §7,
 * docs/INTERNALS.md "Partitioned execution").
 *
 * The batch layer scales across *instances*; this engine scales one
 * big specification across cores. The resolved combinational network
 * (ALUs + selectors) is **statically** partitioned at construction
 * into N balanced lanes with minimized cross-lane edges, and every
 * cycle executes as a fixed sequence of bulk-synchronous phases on a
 * private support/thread_pool:
 *
 *   comb phase(s)  every lane evaluates its components in topological
 *                  order; barrier
 *   trace          coordinator only (byte-identical trace line)
 *   latch phase    every lane latches its memories' address/operation;
 *                  barrier
 *   update phase   independent memory clusters update in parallel;
 *                  I/O-capable and trace-emitting memories run on the
 *                  coordinator in declaration order; barrier
 *
 * Cross-lane communication inside a cycle is forbidden by
 * construction: when the comb network splits into small connected
 * components, whole components are bin-packed into lanes (zero
 * cross-lane edges, one comb phase); when one component is too large
 * to balance, the network is levelized and each dependency level is
 * one bulk-synchronous phase — values cross lanes only over a phase
 * barrier, through the ordinary var array. Between cycles, lanes
 * exchange values through the memory output latches, which the cycle
 * semantics already double-buffer (`temp` holds the previous cycle's
 * value throughout comb+latch and is rewritten only in update).
 *
 * The result is **byte-identical** to the serial interpreter at any
 * lane count: identical traces, identical I/O text and cursors,
 * identical statistics and checkpoints at every cycle boundary.
 * Runtime faults (selector index, memory address) surface with the
 * serial engine's message and cycle; only the not-observable partial
 * state *behind* a faulted cycle may differ (DESIGN.md §7).
 */

#ifndef ASIM_SIM_PARTITION_HH
#define ASIM_SIM_PARTITION_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/interpreter.hh"
#include "support/thread_pool.hh"

namespace asim {

/** Below this many combinational components the facade keeps the
 *  serial interpreter even when partitions are requested: the seven
 *  hand-written paper machines never pay a barrier. Overridable via
 *  SimulationOptions::partitionMinComponents (tests force tiny
 *  crafted specs through the partitioned path). */
inline constexpr size_t kPartitionAutoThreshold = 256;

/** Most worker lanes one design may ask for. The count sizes per-lane
 *  vectors and a thread pool, so `--partitions=N`, a batch manifest's
 *  `partitions=N` and a serve session recipe all refuse a larger
 *  value rather than honor it. */
inline constexpr unsigned kMaxPartitions = 256;

/** The static execution schedule of a PartitionedInterpreter. */
struct PartitionPlan
{
    /** Lane (= worker) count the plan was built for (>= 1). */
    unsigned lanes = 1;

    /** Combinational schedule: phases_[phase][lane] lists indices
     *  into ResolvedSpec::comb, ascending (topological within a
     *  lane). One phase when component-packed; one per dependency
     *  level when levelized. */
    std::vector<std::vector<std::vector<int32_t>>> combPhases;

    /** Memory-latch schedule: lane -> memory indices, ascending. */
    std::vector<std::vector<int32_t>> latchLanes;

    /** Memory-update schedule: lane -> memory indices in declaration
     *  order. A lane's memories are whole update clusters (closed
     *  under data-expression output-latch references), so lanes never
     *  observe each other's in-flight updates. */
    std::vector<std::vector<int32_t>> updateLanes;

    /** Memories that must update on the coordinator in global
     *  declaration order: anything that may perform I/O or emit trace
     *  events (order is observable), plus their whole clusters. */
    std::vector<int32_t> serialUpdates;

    /// @{ Plan accounting (reports, balance tests).
    bool levelized = false;   ///< false = component-packed
    size_t levels = 1;        ///< comb phases per cycle
    size_t combComponents = 0;
    size_t aluCount = 0;
    size_t selCount = 0;
    size_t totalEdges = 0;    ///< distinct comb dependency edges
    size_t crossEdges = 0;    ///< edges crossing a lane boundary
    size_t maxLaneWeight = 0; ///< comb weight of the heaviest lane
    size_t minLaneWeight = 0; ///< ... and the lightest
    /// @}

    /** One human-readable line for logs and --stats. */
    std::string summary() const;
};

/**
 * Build the static schedule for `lanes` workers.
 *
 * @param rs resolved specification
 * @param lanes worker count (clamped to >= 1)
 * @param tracingEnabled whether a trace sink will be attached — when
 *        true, memories that may emit read/write trace events join
 *        the serial update lane so event order stays declaration
 *        order
 */
PartitionPlan buildPartitionPlan(const ResolvedSpec &rs,
                                 unsigned lanes, bool tracingEnabled);

/**
 * The partitioned table-walking engine. Identical component semantics
 * to Interpreter (it *is* an Interpreter driving the same protected
 * per-component operations from worker threads); see the file comment
 * for the phase schedule and determinism argument. Construct via
 * makePartitionedInterpreter() or the facade's "interp" engine with
 * SimulationOptions::partitions >= 2.
 */
class PartitionedInterpreter : public Interpreter
{
  public:
    PartitionedInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                           const EngineConfig &cfg, unsigned lanes);

    void step() override;

    const PartitionPlan &plan() const { return plan_; }

  private:
    void runCombPhases();
    void runLatchPhase();
    void runUpdatePhase();

    /** Fold one bulk-synchronous phase's per-lane timestamps into the
     *  metrics registry (per-lane phase-duration + barrier-wait
     *  histograms) and, on sampled cycles, into the span tracer.
     *  Called only when metrics::timingEnabled(). */
    void recordPhaseObservations(const char *phaseName, size_t lanes);

    /** Lowest faulting component/memory key across lanes, -1 for
     *  none; faults are captured per lane so the surfaced error never
     *  depends on scheduling. */
    int32_t minFaultKey() const;
    void clearFaults();
    [[noreturn]] void throwFault(int32_t key) const;

    PartitionPlan plan_;
    ThreadPool pool_;
    std::vector<int32_t> faultKey_;      ///< per lane; -1 = no fault
    std::vector<std::string> faultMsg_;  ///< per lane

    /** Per-lane phase start/finish timestamps of the most recent
     *  bulk-synchronous phase. Written by lane tasks (disjoint slots),
     *  read by the coordinator after the barrier; populated only when
     *  metrics::timingEnabled(). Timing never feeds back into
     *  simulation state — traces/IO/checkpoints stay byte-identical
     *  with observability on or off. */
    std::vector<uint64_t> laneStartNs_;
    std::vector<uint64_t> laneFinishNs_;
};

/** Build a partitioned interpreter with `lanes` worker lanes. */
std::unique_ptr<Engine>
makePartitionedInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                           const EngineConfig &cfg, unsigned lanes);

} // namespace asim

#endif // ASIM_SIM_PARTITION_HH

/**
 * @file
 * BatchRunner — bulk-parallel execution of independent simulations.
 *
 * The paper's pipeline produces one simulator per specification; the
 * throughput story for modern RTL workloads is *many* independent
 * instances saturating all host cores off shared immutable inputs.
 * BatchRunner is that driver:
 *
 *  - a **homogeneous** batch (addBatch) shards N instances off one
 *    parse+resolve — and one compiled artifact per engine family:
 *    a shared bytecode program for "vm", a shared generated, compiled
 *    and loaded library for "native" (Simulation::shareBatchArtifacts);
 *  - a **heterogeneous** batch (addJob / loadManifest) mixes specs,
 *    engines, cycle budgets, per-instance input scripts, and
 *    watchpoints in one run;
 *  - run() executes every job on a support/thread_pool work queue
 *    and merges results **deterministically**: InstanceResults come
 *    back ordered by instance index with contents (state, trace,
 *    I/O text, statistics) byte-identical under any thread count —
 *    the property tests/sim/batch_test.cc enforces;
 *  - with BatchOptions::checkpointDir, instances leave durable
 *    checkpoints (sim/checkpoint.hh) as they run, and
 *    resumeFromCheckpoints() lets a re-created runner — after a
 *    crash, a kill, or a budget extension — re-run only the
 *    instances that never finished.
 *
 * What is shared between concurrently running instances is immutable
 * (ResolvedSpec, Program, NativeBuild — see DESIGN.md §7);
 * everything mutable (MachineState, statistics, I/O devices, trace
 * sinks, output buffers) is per-instance. For "native" the shared
 * artifact is one loaded library that keeps no state of its own
 * (DESIGN.md §5): every instance runs it on its own MachineState. The
 * runner releases each instance as soon as its results are captured.
 * Interactive I/O remains refused — concurrent instances cannot
 * multiplex one terminal.
 */

#ifndef ASIM_SIM_BATCH_HH
#define ASIM_SIM_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "support/stats.hh"

namespace asim {

/** One simulation to run as part of a batch. */
struct BatchJob
{
    /** Full per-job pipeline options. Stream pointers (ioOut,
     *  traceStream) are ignored — the runner substitutes per-instance
     *  buffers so parallel jobs never share a stream. An explicit
     *  config.io / config.trace is honored but must not be shared
     *  with any other job in the batch. */
    SimulationOptions options;

    /** Cycle budget; 0 means the spec's `=` count (an error when the
     *  spec names none). The budget is an *absolute* target cycle:
     *  an instance restored from `restoreFrom`/`restoreSnapshot` at
     *  cycle N runs only the remaining budget-N cycles. */
    uint64_t cycles = 0;

    /** When set, restore this checkpoint file (sim/checkpoint.hh)
     *  before the instance runs — the fault-campaign pattern: every
     *  instance resumes one shared golden checkpoint instead of
     *  replaying from cycle zero. The checkpoint must match the
     *  job's specification (identity hash is verified); a mismatch
     *  or unreadable file faults the instance, not the batch. */
    std::string restoreFrom;

    /** Like restoreFrom but pre-decoded: campaigns decode the golden
     *  checkpoint once and share the immutable snapshot across every
     *  instance. Takes precedence over restoreFrom. */
    std::shared_ptr<const EngineSnapshot> restoreSnapshot;

    /** Optional watchpoint: stop early once component `watchName`
     *  reads `watchValue` (checked after each cycle). */
    std::string watchName;
    int32_t watchValue = 0;

    /** Capture the thesis-format per-cycle trace into
     *  InstanceResult::traceText. Off by default: tracing a large
     *  batch is rarely wanted and never free. */
    bool captureTrace = false;

    /** Display label for reports; defaults to the spec file name or
     *  the engine name. */
    std::string label;
};

/** What one instance produced, every channel per-instance. */
struct InstanceResult
{
    size_t index = 0;          ///< position in the batch
    std::string label;
    std::string engine;
    uint64_t cyclesRequested = 0;
    uint64_t cyclesRun = 0;
    bool watchpointHit = false;
    bool resumed = false;      ///< continued from / finished in a
                               ///< prior run's checkpoints
    bool faulted = false;
    std::string fault;         ///< SimError text when faulted
    std::string ioText;        ///< scripted outputs, thesis format
    std::string traceText;     ///< captured trace (captureTrace)
    SimStats stats;
    MachineState state;        ///< final machine state
    double seconds = 0;        ///< this instance's wall time
};

/** A completed batch: per-instance results in index order plus the
 *  deterministic aggregate. */
struct BatchResult
{
    std::vector<InstanceResult> instances;
    RunStats aggregate;
    unsigned threads = 0;      ///< pool size that ran the batch

    /** True when no instance faulted. */
    bool allOk() const;

    /** Render the CLI summary table. */
    std::string summaryTable() const;

    /** Render a JSON report (asim-run --json). */
    std::string json() const;
};

/** Execution knobs for a BatchRunner. */
struct BatchOptions
{
    /** Worker threads; 0 means ThreadPool::hardwareThreads(). */
    unsigned threads = 0;

    /** Keep each instance's final MachineState in the result (memory
     *  proportional to batch size x spec size when on). */
    bool captureState = true;

    /** When set, every instance leaves one durable file here,
     *  `inst-<i>.ckpt` (sim/checkpoint.hh): its latest checkpoint,
     *  whose sections carry the scripted output and (captureTrace
     *  jobs) the captured trace up to that cycle, plus a done flag
     *  once the instance completed. A later runner with the same job
     *  list calls resumeFromCheckpoints() to skip finished instances
     *  and continue interrupted ones (resumed instances merge the
     *  saved output/trace with the continuation's, so the final
     *  channels match an uninterrupted run). Created on demand. */
    std::string checkpointDir;

    /** Cycles between periodic mid-run checkpoints (plain-budget
     *  and watchpoint jobs alike). 0 = checkpoint only when an
     *  instance finishes. Requires checkpointDir. */
    uint64_t checkpointEvery = 0;
};

/** Most instances one batch-manifest line may ask for with
 *  `count=N`. Every instance is a job the runner holds before any
 *  runs, so a larger count is refused, naming the line,
 *  rather than left to exhaust memory. */
inline constexpr size_t kMaxManifestCount = size_t{1} << 16;

/** See file comment. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchOptions opts = {});

    /**
     * Append one heterogeneous job. @return the job's instance index
     * @throws SimError for interactive I/O (see file comment)
     */
    size_t addJob(BatchJob job);

    /** Append `count` homogeneous instances sharing one resolve (and
     *  one compiled program for "vm", one loaded library for
     *  "native"). Per-instance fields of `job` (cycles, watchpoint,
     *  label) apply to every instance; labels get an `#i` suffix.
     *  @return index of the first instance */
    size_t addBatch(BatchJob job, size_t count);

    /** Jobs added so far. */
    size_t jobCount() const { return jobs_.size(); }

    /**
     * Validate every job serially (budget, spec load, resume
     * checkpoints, Simulation::checkOptions), then build, run and
     * release each instance on the thread pool, so at most `threads`
     * simulations exist at once, and merge results by instance index.
     *
     * Spec/engine errors (SpecError, SimError during validation or
     * construction; the lowest failing index's when several fail)
     * propagate; validation errors before any instance runs, a
     * construction error once the instances already running finish.
     * *Runtime* faults inside an instance are captured in its
     * InstanceResult instead of aborting the batch.
     */
    BatchResult run();

    /**
     * Parse a batch manifest: one job per line,
     *
     *     <spec-file> [key=value]...   # comment
     *
     * with keys `cycles` (uint), `io` (input script path, parsed by
     * Simulation::loadScript), `engine` (a kEngines name), `count`
     * (instances of this line, up to kMaxManifestCount), `watch`
     * (`component:value`), `fault` (a fault in the shared grammar of
     * analysis/fault.hh — malformed faults produce the same
     * SpecError text as `asim-run --inject=`), and `restore`
     * (checkpoint file restored before running, see
     * BatchJob::restoreFrom). Relative
     * spec/io/restore paths resolve against the manifest's
     * directory. `defaults` seeds every job's SimulationOptions
     * (engine, ALU semantics, I/O wiring...); `defaultCycles`,
     * when nonzero, is the budget for lines without a `cycles=` key
     * (overriding any spec `=` count, like the CLI's --cycles).
     * @throws SimError on unreadable files or malformed lines
     */
    size_t loadManifest(const std::string &path,
                        const SimulationOptions &defaults,
                        uint64_t defaultCycles = 0);

    /**
     * Resume support: scan BatchOptions::checkpointDir for the
     * checkpoints a previous run of this same job list left behind
     * (a *killed* run leaves checkpoints without the done flag; a
     * finished one sets it). Instances whose done flag satisfies
     * their budget are not re-run — their recorded results are
     * reloaded; other instances with a checkpoint restore it and
     * execute only the remaining cycles. Output text saved in the
     * checkpoint is preloaded, so a resumed instance's ioText
     * matches an uninterrupted run's.
     *
     * Call after every job is added and before run(). Jobs must
     * match the earlier run's (the checkpoint spec-identity hash is
     * verified per instance; a mismatch faults construction).
     *
     * @return instances that will skip or shorten their run
     * @throws SimError when checkpointDir is unset
     */
    size_t resumeFromCheckpoints();

  private:
    std::string instancePath(size_t index) const;

    BatchOptions opts_;
    std::vector<BatchJob> jobs_;
    bool resume_ = false; ///< resumeFromCheckpoints() was called
};

} // namespace asim

#endif // ASIM_SIM_BATCH_HH

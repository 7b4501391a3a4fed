/**
 * @file
 * The Simulation facade and engine table — the single front door to
 * the paper's interchangeable execution systems.
 *
 * The thesis' central claim is that one RTL description drives
 * multiple execution systems: the ASIM table interpreter and the
 * compiled ASIM II pipeline. This header makes that claim an API:
 *
 *  - kEngines names the engines, one row each: the ASIM table
 *    interpreter ("interp", plus the faithful name-lookup baseline
 *    "symbolic") and the ASIM II pipeline, portable ("vm") and
 *    host-compiled ("native").
 *
 *  - Simulation owns the whole parse -> resolve -> engine pipeline
 *    behind one options struct, plus run control: step()/run(n),
 *    runUntil(predicate)/watchpoints, snapshot()/restore(), and the
 *    shared artifacts (one resolve, one compiled program or library)
 *    that independent instances of one spec build off.
 *
 * Every consumer (CLIs, equivalence tests, benchmarks) constructs
 * engines through this facade; makeInterpreter()/makeVm() are for
 * sim internals and engine unit tests only.
 */

#ifndef ASIM_SIM_SIMULATION_HH
#define ASIM_SIM_SIMULATION_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/fault.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"

namespace asim {

struct NativeBuild;

/** One execution system the facade builds by name. */
struct EngineInfo
{
    std::string_view name;
    std::string_view description;
};

/** The engines, sorted by name (the `--list-engines` order). */
inline constexpr EngineInfo kEngines[] = {
    {"interp", "slot-resolved table interpreter (ASIM analog); "
               "--partitions=N runs one design bulk-synchronously "
               "across N lanes"},
    {"native", "generated C++ host-compiled into a shared library and "
               "run in process (ASIM II pipeline)"},
    {"symbolic",
     "name-lookup symbolic interpreter (faithful ASIM baseline)"},
    {"vm", "compiled bytecode VM (portable ASIM II analog)"},
};

/** How the facade wires memory-mapped I/O when no explicit IoDevice
 *  is supplied in SimulationOptions::config. */
enum class IoMode
{
    /** No I/O: inputs read zero, outputs are discarded. */
    Null,

    /** Thesis-style stream I/O on ioIn/ioOut (default std::cin /
     *  std::cout): prompts, char reads at address 0. */
    Interactive,

    /** Scripted: inputs come from `scriptInputs`, outputs render in
     *  the thesis text format onto ioOut. */
    Script,
};

/** Options assembling one simulation end to end. */
struct SimulationOptions
{
    /// @{ Specification source — exactly one must be set.
    std::string specFile;
    std::string specText;
    std::shared_ptr<const ResolvedSpec> resolved;
    /// @}

    /** Engine name: a row of kEngines. */
    std::string engine = "vm";

    /** Engine options. An explicit config.trace / config.io here
     *  overrides the traceStream / ioMode wiring below. */
    EngineConfig config;

    /// @{ Shared artifacts, built once by shareBatchArtifacts() from
    /// `resolved` and adopted instead of building per instance:
    /// bytecode for "vm", a loaded library for "native", the parsed
    /// tree for "symbolic". The vm and native engines refuse an
    /// artifact compiled from another spec, or without trace output
    /// when a trace sink is configured. A splice fault resolves its
    /// own spec, so its instance ignores them.
    std::shared_ptr<const Program> program;
    std::shared_ptr<const NativeBuild> nativeBuild;
    std::shared_ptr<const Spec> ast;
    /// @}

    /// @{ I/O wiring (used when config.io is null)
    IoMode ioMode = IoMode::Null;
    std::vector<int32_t> scriptInputs;
    std::istream *ioIn = nullptr;
    std::ostream *ioOut = nullptr;
    /// @}

    /**
     * Fault to inject, in the shared grammar of analysis/fault.hh:
     * `component[cell]:bit:mode[@cycle]`. Empty means a healthy run.
     *
     * Without `@cycle` the fault is a permanent spec splice: the
     * facade resolves the *spliced* specification (note the spec
     * identity hash — and hence checkpoint compatibility — changes
     * with it). With `@cycle` the specification is untouched and the
     * facade perturbs engine state once, before the first cycle
     * executed at or after that boundary; restoring a snapshot from
     * an earlier cycle re-arms the injection, restoring one from a
     * later cycle cancels it (the fault lies in the restored
     * history). Uniform across the CLI (--inject=), batch manifests
     * (fault=), and campaigns.
     */
    std::string fault;

    /** When set (and config.trace is null), trace in the thesis text
     *  format onto this stream. */
    std::ostream *traceStream = nullptr;

    /** Artifact directory for the native engine; empty means the
     *  process-wide build cache. */
    std::string workDir;

    /** Intra-spec parallelism: split one design's cycle across this
     *  many worker lanes (sim/partition.hh). Requires the "interp"
     *  engine; 0/1 means serial. Results are byte-identical to
     *  serial execution at any lane count. */
    unsigned partitions = 1;

    /** Keep the serial interpreter (even with partitions >= 2) for
     *  specs below this many combinational components — barrier
     *  overhead dwarfs the work on small machines. Defaults to
     *  kPartitionAutoThreshold (sim/partition.hh); tests lower it to
     *  force tiny specs through the partitioned path. */
    size_t partitionMinComponents = 256;
};

/**
 * A fully assembled simulation: resolved specification + engine +
 * I/O/trace wiring, with run control. See the file comment.
 */
class Simulation
{
  public:
    /** Build the whole pipeline. @throws SpecError on specification
     *  problems, SimError on engine/options problems */
    explicit Simulation(const SimulationOptions &opts);

    /** Parse + resolve the options' specification source without
     *  building an engine (shared by tools like asim2c). */
    static ResolvedSpec loadSpec(const SimulationOptions &opts,
                                 Diagnostics *diag = nullptr);

    /** The constructor's checks short of building anything: the
     *  fault's text and, given `rs`, its @cycle site against it; the
     *  engine name; and partitions on the interp engine only. Without
     *  `rs` they run before the spec is read. @throws SpecError,
     *  SimError */
    static void checkOptions(const SimulationOptions &opts,
                             const ResolvedSpec *rs = nullptr);

    /** Parse a script file of whitespace-separated integer inputs;
     *  `#` starts a comment running to end of line. @throws SimError
     *  on an unreadable file or a non-integer token */
    static std::vector<int32_t> loadScript(const std::string &path);

    /** Return a copy of `opts` with the spec resolved once and (for
     *  "vm") the bytecode compiled once, (for "native") the simulator
     *  built once or (for "symbolic") the tree parsed once, ready to
     *  construct any number of independent instances off it. Pass
     *  `forceTracingPossible` when a trace sink will be attached
     *  only later (BatchRunner's per-instance capture), so the
     *  shared bytecode keeps its trace checks. */
    static SimulationOptions
    shareBatchArtifacts(const SimulationOptions &opts,
                        bool forceTracingPossible = false);

    const std::string &engineName() const { return engineName_; }
    Engine &engine() { return *engine_; }
    const Engine &engine() const { return *engine_; }
    const ResolvedSpec &resolved() const { return *rs_; }
    const Diagnostics &diagnostics() const { return diag_; }

    /// @{ Run control (forwarded to the engine; the facade applies a
    /// pending @cycle fault at its boundary on the way)
    void reset();
    void step();
    void run(uint64_t cycles);
    uint64_t cycle() const { return engine_->cycle(); }
    /// @}

    /** Cycles+1 of the spec's `=` line (the thesis' inclusive run
     *  length), or -1 when the spec names no cycle count. */
    int64_t defaultCycles() const;

    using Predicate = std::function<bool(const Simulation &)>;

    /** Step until `pred(*this)` holds (checked after each cycle) or
     *  `maxCycles` cycles have executed; returns cycles executed. */
    uint64_t runUntil(const Predicate &pred, uint64_t maxCycles);

    /** Watchpoint: step until component `name` reads `value`.
     *  @throws SimError before the first step when `name` names no
     *  component */
    uint64_t runUntilValue(std::string_view name, int32_t value,
                           uint64_t maxCycles);

    int32_t value(std::string_view name) const
    {
        return engine_->value(name);
    }
    int32_t memCell(std::string_view mem, int64_t addr) const
    {
        return engine_->memCell(mem, addr);
    }
    const SimStats &stats() const { return engine_->stats(); }

    EngineSnapshot snapshot() const { return engine_->snapshot(); }
    void restore(const EngineSnapshot &snap);

    /// @{ Durable checkpoints (sim/checkpoint.hh): the snapshot
    /// serialized to a versioned, checksummed binary file bound to
    /// this specification's identity hash. A checkpoint saved by any
    /// engine restores under any other.
    /** Write the current snapshot, plus `sections`, to `path`
     *  (atomic: temp+rename). @throws SimError on I/O failure */
    void saveCheckpoint(const std::string &path,
                        const CheckpointSections &sections = {}) const;

    /** Load, validate (magic, version, checksum, spec hash, shape),
     *  and restore the checkpoint at `path`; its sections go to
     *  `sections` when given. @throws SimError with path/offset/
     *  reason on corrupt or mismatched files */
    void restoreCheckpoint(const std::string &path,
                           CheckpointSections *sections = nullptr);

    /** This specification's content identity
     *  (analysis/resolve.hh specIdentityHash). */
    uint64_t specHash() const;
    /// @}

  private:
    /** Apply the armed @cycle fault when its boundary has been
     *  reached; called before cycles execute, never after the last
     *  one (so a checkpoint saved exactly at the boundary stays
     *  healthy and a resume re-applies the fault — see
     *  SimulationOptions::fault). */
    void injectPending();

    std::shared_ptr<const ResolvedSpec> rs_;
    Diagnostics diag_;
    std::string engineName_;
    std::unique_ptr<TraceSink> ownedTrace_;
    std::unique_ptr<IoDevice> ownedIo_;
    std::unique_ptr<Engine> engine_;
    FaultSite fault_;        ///< parsed @cycle fault (hasFault_)
    bool hasFault_ = false;  ///< options carried an @cycle fault
    bool faultArmed_ = false; ///< not yet applied on this timeline
};

} // namespace asim

#endif // ASIM_SIM_SIMULATION_HH

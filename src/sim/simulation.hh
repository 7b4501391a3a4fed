/**
 * @file
 * The Simulation facade and engine registry — the single front door
 * to the paper's interchangeable execution systems.
 *
 * The thesis' central claim is that one RTL description drives
 * multiple execution systems: the ASIM table interpreter and the
 * compiled ASIM II pipeline. This header makes that claim an API:
 *
 *  - EngineRegistry maps engine names to factories. Built-ins:
 *      "interp"   slot-resolved table interpreter (ASIM analog)
 *      "vm"       compiled bytecode VM (portable ASIM II analog)
 *      "native"   generated C++ host-compiled into a library and
 *                 run in process (the ASIM II pipeline proper)
 *      "symbolic" name-lookup interpreter (faithful ASIM baseline)
 *
 *  - Simulation owns the whole parse -> resolve -> engine pipeline
 *    behind one options struct, plus run control: step()/run(n),
 *    runUntil(predicate)/watchpoints, snapshot()/restore(), and
 *    batched construction of independent instances that share one
 *    resolve.
 *
 * Every consumer (CLIs, equivalence tests, benchmarks) constructs
 * engines through this facade; makeInterpreter()/makeVm() are for
 * sim internals and engine unit tests only.
 */

#ifndef ASIM_SIM_SIMULATION_HH
#define ASIM_SIM_SIMULATION_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/fault.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"

namespace asim {

struct NativeBuild;

/** Everything an engine factory may need beyond the resolved spec. */
struct EngineContext
{
    EngineConfig config;

    /** Pre-compiled bytecode for the "vm" engine; when set, the
     *  factory shares it instead of compiling. Must come from the
     *  same resolved spec with trace checks kept whenever
     *  config.trace may be set (batch construction compiles once and
     *  shares the immutable program across every instance). */
    std::shared_ptr<const Program> program;

    /** Pre-compiled simulator library for the "native" engine; when
     *  set, the factory adopts it instead of generating and
     *  host-compiling — a batch compiles and loads the library once
     *  and every instance runs off it. Same provenance rules as
     *  `program`. */
    std::shared_ptr<const NativeBuild> nativeBuild;

    /** Parsed tree of the resolved spec (ResolvedSpec::ast()) for the
     *  "symbolic" engine, which walks one; when set, instances share
     *  it instead of each parsing its own. Same provenance rules as
     *  `program`. */
    std::shared_ptr<const Spec> ast;

    /** Artifact directory for engines that build binaries; empty
     *  means the process-wide native build cache. */
    std::string workDir;

    /// @{ Intra-spec parallelism (sim/partition.hh); honored by the
    /// "interp" factory, ignored by the other engines.
    unsigned partitions = 1;
    size_t partitionMinComponents = 256;
    /// @}
};

/** String-keyed factory table of execution engines. */
class EngineRegistry
{
  public:
    /** Factories receive the spec as a shared immutable pointer so
     *  engines reference (never copy) one resolve — the invariant
     *  batch construction and parallel execution rely on. */
    using Factory = std::function<std::unique_ptr<Engine>(
        const std::shared_ptr<const ResolvedSpec> &,
        const EngineContext &)>;

    /** The process-wide registry, pre-populated with the built-in
     *  engines named in the file comment. */
    static EngineRegistry &global();

    /** Register an engine. @throws SimError on a duplicate name */
    void add(const std::string &name, const std::string &description,
             Factory factory);

    bool contains(std::string_view name) const;

    /** All registered (name, description) pairs, sorted by name. */
    std::vector<std::pair<std::string, std::string>> list() const;

    /** Construct an engine by name. @throws SimError naming the
     *  registered engines when `name` is unknown */
    std::unique_ptr<Engine>
    make(std::string_view name,
         const std::shared_ptr<const ResolvedSpec> &rs,
         const EngineContext &ctx) const;

  private:
    struct Entry
    {
        Factory factory;
        std::string description;
    };

    [[noreturn]] void throwUnknown(std::string_view name) const;

    std::map<std::string, Entry, std::less<>> entries_;
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

    /** Engine name in the registry. */
    std::string engine = "vm";

    /** Engine options. An explicit config.trace / config.io here
     *  overrides the traceStream / ioMode wiring below. */
    EngineConfig config;

    /** Pre-compiled shared bytecode for the "vm" engine (see
     *  EngineContext::program). makeBatch() fills this in
     *  automatically; set it by hand only with bytecode compiled
     *  from the same `resolved` spec and compatible options. */
    std::shared_ptr<const Program> program;

    /** Pre-compiled shared library for the "native" engine (see
     *  EngineContext::nativeBuild); filled in by
     *  shareBatchArtifacts() under the same rules as `program`. */
    std::shared_ptr<const NativeBuild> nativeBuild;

    /** Shared parsed tree for the "symbolic" engine (see
     *  EngineContext::ast); filled in by shareBatchArtifacts() under
     *  the same rules as `program`. */
    std::shared_ptr<const Spec> ast;

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

    /** The constructor's checks short of building anything: an
     *  @cycle fault against `rs`, the engine name, and partitions on
     *  the interp engine only. @throws SpecError, SimError */
    static void checkOptions(const SimulationOptions &opts,
                             const ResolvedSpec &rs);

    /** Parse a script file of whitespace-separated integer inputs;
     *  `#` starts a comment running to end of line. @throws SimError
     *  on an unreadable file or a non-integer token */
    static std::vector<int32_t> loadScript(const std::string &path);

    /** Construct `count` independent instances that share a single
     *  parse+resolve — and, for the "vm" engine, a single compiled
     *  program (throughput workloads; see sim/batch.hh for the
     *  parallel driver). Each instance gets its own engine and, in
     *  Script mode, its own input queue. */
    static std::vector<std::unique_ptr<Simulation>>
    makeBatch(const SimulationOptions &opts, size_t count);

    /** The sharing half of makeBatch(): return a copy of `opts` with
     *  the spec resolved once and (for "vm") the bytecode compiled
     *  once, (for "native") the simulator built once or (for
     *  "symbolic") the tree parsed once, ready to construct any number of instances. Pass
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

    /** Watchpoint: step until component `name` reads `value`. */
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
    /// registry engine restores under any other.
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

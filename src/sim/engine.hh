/**
 * @file
 * Engine interface: the common face of the three execution systems.
 *
 *  - Interpreter  — the ASIM baseline: walks resolved expression
 *                   tables every cycle.
 *  - Vm           — the portable ASIM II analog: executes a compiled
 *                   bytecode program.
 *  - NativeEngine  — the ASIM II pipeline proper: generated C++
 *                   compiled by the host compiler into a library
 *                   and run in process (sim/native_engine.hh).
 *
 * All engines implement the identical cycle semantics (DESIGN.md §3)
 * and are cross-checked by equivalence property tests.
 */

#ifndef ASIM_SIM_ENGINE_HH
#define ASIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/resolve.hh"
#include "lang/alu_ops.hh"
#include "sim/io.hh"
#include "sim/state.hh"
#include "sim/trace.hh"
#include "support/stats.hh"

namespace asim {

/** Options shared by all engines. */
struct EngineConfig
{
    /** ALU shift-left edge case semantics. */
    AluSemantics aluSemantics = AluSemantics::Thesis;

    /** Trace sink; nullptr disables tracing entirely. */
    TraceSink *trace = nullptr;

    /** I/O device; nullptr behaves like NullIo. */
    IoDevice *io = nullptr;
};

/** A complete capture of an engine's execution at a cycle boundary:
 *  machine state, cycle counter, statistics, and the scripted-input
 *  cursor. Snapshots taken from one engine may be restored into any
 *  engine running the same resolved specification (the equivalence
 *  property guarantees the continuation is identical). */
struct EngineSnapshot
{
    MachineState state;
    uint64_t cycle = 0;
    SimStats stats;

    /** Scripted input *values* consumed when the snapshot was taken
     *  (IoDevice::inputsConsumed()); restore seeks the script here so
     *  the continuation reads the same inputs an uninterrupted run
     *  would. */
    uint64_t ioValues = 0;
};

/**
 * A loaded simulation ready to run.
 *
 * The resolved specification is held through a
 * `shared_ptr<const ResolvedSpec>`: engines only ever *read* it, so
 * any number of instances — including instances running concurrently
 * on different threads (sim/batch.hh) — may share one resolve. The
 * const-ref constructor copies the argument into a fresh shared spec,
 * so temporaries remain safe: `makeVm(resolveText(text))`.
 */
class Engine
{
  public:
    explicit Engine(const ResolvedSpec &rs, const EngineConfig &cfg);
    Engine(std::shared_ptr<const ResolvedSpec> rs,
           const EngineConfig &cfg);
    virtual ~Engine() = default;

    /** Re-initialize all state ("All components are initialized to
     *  zero...") and reset statistics, the cycle counter, and the
     *  input script's cursor (where the device can seek). */
    void reset();

    /** Execute exactly one cycle. @throws SimError on runtime faults */
    virtual void step() = 0;

    /** Execute `cycles` cycles. Virtual so engines can advance in one
     *  batch instead of cycle by cycle. */
    virtual void run(uint64_t cycles);

    /** Capture state + cycle + statistics + input cursor for a later
     *  restore() (possibly in another engine or — serialized through
     *  sim/checkpoint.hh — another process). */
    EngineSnapshot snapshot() const;

    /** snapshot() into `snap`, reusing its storage: a caller taking
     *  one every cycle (a campaign's golden run) allocates nothing. */
    void snapshotInto(EngineSnapshot &snap) const;

    /** Adopt a snapshot taken from an engine running the same
     *  specification — any engine: the continuation is
     *  cycle-for-cycle identical to an uninterrupted run. @throws
     *  SimError when the snapshot's shape does not match this
     *  specification */
    void restore(const EngineSnapshot &snap);

    /** Cycles executed since the last reset. */
    uint64_t cycle() const { return cycle_; }

    const MachineState &state() const { return state_; }
    MachineState &state() { return state_; }

    const SimStats &stats() const { return stats_; }

    /** EngineSnapshot::ioValues without taking a snapshot. */
    uint64_t inputsConsumed() const { return io_->inputsConsumed(); }

    const ResolvedSpec &resolved() const { return *rs_; }

    /** The shared immutable resolve this engine reads. */
    const std::shared_ptr<const ResolvedSpec> &
    resolvedShared() const
    {
        return rs_;
    }

    /** Current observable value of a component: a combinational output
     *  or a memory's output latch. @throws SimError on unknown name */
    int32_t value(std::string_view name) const;

    /** Read one cell of a memory. @throws SimError on bad name/addr */
    int32_t memCell(std::string_view mem, int64_t addr) const;

  protected:
    /** Shape-check a snapshot against this engine's specification.
     *  @throws SimError on var/memory count or size mismatch */
    void checkSnapshotShape(const EngineSnapshot &snap) const;

    /** Emit the per-cycle trace line for the starred components. */
    void traceCycle();

    /** Immutable, potentially cross-thread-shared; never written. */
    std::shared_ptr<const ResolvedSpec> rs_;
    EngineConfig cfg_;
    MachineState state_;
    SimStats stats_;
    NullIo nullIo_;
    IoDevice *io_;
    uint64_t cycle_ = 0;
};

/// @{ The runtime faults every engine raises, worded alike: a
/// selector index outside its cases, a read or write address outside
/// its memory. `cycle` is the cycle the fault stopped.
SimError selectorFault(std::string_view name, int32_t index,
                       size_t cases, uint64_t cycle);
SimError memoryFault(std::string_view name, int32_t address,
                     size_t size, uint64_t cycle);
/// @}

/** value()'s error for a name that is no component; watchpoints
 *  raise it before they run. */
SimError unknownComponent(std::string_view name);

/** Build the table-walking interpreter (ASIM analog). */
std::unique_ptr<Engine> makeInterpreter(const ResolvedSpec &rs,
                                        const EngineConfig &cfg = {});
std::unique_ptr<Engine>
makeInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                const EngineConfig &cfg = {});

/** Build the bytecode VM (portable ASIM II analog). */
std::unique_ptr<Engine> makeVm(const ResolvedSpec &rs,
                               const EngineConfig &cfg = {});
std::unique_ptr<Engine> makeVm(std::shared_ptr<const ResolvedSpec> rs,
                               const EngineConfig &cfg = {});

struct Program;

/** Build a bytecode VM executing a pre-compiled shared program;
 *  batch construction uses this to compile once and share the
 *  immutable bytecode across all instances. @throws SimError when
 *  the program was compiled from another spec, or without trace
 *  checks while `cfg.trace` is set (sim/compiler.hh) */
std::unique_ptr<Engine> makeVm(std::shared_ptr<const ResolvedSpec> rs,
                               const EngineConfig &cfg,
                               std::shared_ptr<const Program> program);

} // namespace asim

#endif // ASIM_SIM_ENGINE_HH

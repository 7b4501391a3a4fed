/**
 * @file
 * Bytecode VM engine (see sim/bytecode.hh).
 *
 * The VM executes the program's whole-cycle stream in a single
 * dispatch loop, one dispatch per op word and a cursor over the term
 * spans: one runCycles() call executes any number of cycles without
 * leaving the interpreter core. Dispatch is threaded
 * (computed goto), so the vm builds with GCC or Clang only.
 */

#ifndef ASIM_SIM_VM_HH
#define ASIM_SIM_VM_HH

#include "sim/bytecode.hh"
#include "sim/engine.hh"

namespace asim {

/** The compiled-execution engine. Construct via makeVm(). The
 *  program, like the resolved spec, is immutable and may be shared
 *  by any number of concurrently running instances. */
class Vm : public Engine
{
  public:
    Vm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg);
    Vm(const ResolvedSpec &rs, const EngineConfig &cfg = {})
        : Vm(std::make_shared<const ResolvedSpec>(rs), cfg)
    {}

    /** Adopt a pre-compiled shared program (batch construction).
     *  @throws SimError when it does not fit this spec and config
     *  (see makeVm) */
    Vm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
       std::shared_ptr<const Program> program);

    void step() override;

    /** Runs all `cycles` inside one dispatch-loop activation (the
     *  base-class implementation would pay a virtual call and a loop
     *  restart per cycle). */
    void run(uint64_t cycles) override;

    /** The compiled program (for inspection and tests). */
    const Program &program() const { return *prog_; }

    /** The shared immutable program this VM executes. */
    const std::shared_ptr<const Program> &
    programShared() const
    {
        return prog_;
    }

  private:
    /** Execute `n` cycles (n >= 1) of the cycle stream. */
    void runCycles(uint64_t n);

    /** Fold a run's hot-loop counters into the engine: `done` cycles
     *  completed after cycle `cycle0`, and `partial` words dispatched
     *  of a cycle a fault ended (0 when none did). */
    void finishRun(uint64_t cycle0, uint64_t done, uint64_t aluEvals,
                   uint64_t selEvals, uint64_t partial);

    /** Name of memory `idx` (faults and trace events). */
    std::string_view memName(uint32_t idx) const;

    /** Memory bounds failure (cold path); throws SimError. */
    [[noreturn]] void checkAddr(const MemoryState &ms, uint32_t idx,
                                uint64_t cycle) const;

    /** Selector bounds failure (cold path): finds the selector by the
     *  word's destination in the resolved spec; throws SimError. */
    [[noreturn]] void selFail(const Instr &in, int32_t sel,
                              uint64_t cycle) const;

    /** Runtime trace checks (cold path, flag-gated); `temp` is the
     *  memory's output latch. */
    void memTrace(const MemoryState &ms, int32_t temp,
                  const Instr &in) const;

    /** Immutable, potentially cross-thread-shared; never written. */
    std::shared_ptr<const Program> prog_;
};

} // namespace asim

#endif // ASIM_SIM_VM_HH

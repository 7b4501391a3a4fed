/**
 * @file
 * Bytecode VM engine (see sim/bytecode.hh).
 *
 * The VM executes the program's fused whole-cycle stream in a single
 * dispatch loop: one runCycles() call executes any number of cycles
 * without leaving the interpreter core. Dispatch is threaded
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

    /** Adopt a pre-compiled shared program (batch construction). */
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
    /** Execute `n` cycles (n >= 1) of the fused cycle stream. */
    void runCycles(uint64_t n);

    /** Bounds-check a latched address; throws SimError. */
    void checkAddr(const MemoryState &ms, uint16_t idx,
                   uint64_t cycle) const;

    /** Selector bounds failure (cold path); throws SimError. */
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

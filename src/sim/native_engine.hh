/**
 * @file
 * NativeEngine — the full ASIM II pipeline (generate C++ -> host
 * compiler -> native execution, thesis §5.2) wrapped as a true Engine
 * subclass, the "native" row of kEngines (sim/simulation.hh), so all
 * the paper's execution systems are interchangeable by name.
 *
 * The generated simulator runs **in process** (DESIGN.md §5): the
 * library form of the generated C++ (codegen/cpp_backend.hh) is
 * host-compiled `-fPIC -shared -nodefaultlibs` once, loaded with
 * `dlopen`, and shared read-only by every instance over the same
 * build. The library
 * keeps no state: it runs the cycle body on this engine's own
 * MachineState arrays, so
 *
 *  - run(n) is one call into the library;
 *  - value(), state(), snapshot(), and restore() are the base
 *    engine's plain accesses, and a watchpoint checks in process;
 *  - I/O goes through the configured IoDevice and traces into the
 *    configured TraceSink, by callback, exactly as in the other
 *    engines (an exception either throws is rethrown when the
 *    library call returns);
 *  - a runtime fault raises the same SimError as interp and vm and
 *    leaves cycle(), state(), and statistics where interp leaves
 *    them; reset() or restore() recovers.
 */

#ifndef ASIM_SIM_NATIVE_ENGINE_HH
#define ASIM_SIM_NATIVE_ENGINE_HH

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "codegen/native.hh"
#include "sim/engine.hh"

namespace asim {

/** See file comment. Usually constructed by the Simulation facade
 *  as engine "native". */
class NativeEngine : public Engine
{
  public:
    struct Options
    {
        /** Artifact directory; empty = the process-wide build cache
         *  (compileSpecCached). Ignored with `prebuilt`. */
        std::string workDir;

        /** Adopt an already-loaded library build instead of
         *  compiling: a homogeneous batch compiles once and every
         *  instance runs off this shared build
         *  (Simulation::shareBatchArtifacts). It must emit trace
         *  whenever the EngineConfig carries a trace sink. */
        std::shared_ptr<const NativeBuild> prebuilt;
    };

    /** Generates, host-compiles, and loads the simulator library
     *  (unless Options::prebuilt short-circuits that). @throws
     *  SimError when no host compiler is available, compilation
     *  fails, or the build does not fit this configuration */
    NativeEngine(std::shared_ptr<const ResolvedSpec> rs,
                 const EngineConfig &cfg, Options opts);
    NativeEngine(const ResolvedSpec &rs, const EngineConfig &cfg,
                 Options opts = {})
        : NativeEngine(std::make_shared<const ResolvedSpec>(rs), cfg,
                       std::move(opts))
    {}
    NativeEngine(const NativeEngine &) = delete; // ctx_.host is this
    NativeEngine &operator=(const NativeEngine &) = delete;

    /** True if the host compiler needed by this engine exists. */
    static bool available() { return hostCompilerAvailable(); }

    /** The library build an engine with this configuration runs:
     *  compiled into `workDir`, or through the build cache when it is
     *  empty. */
    static std::shared_ptr<const NativeBuild>
    buildFor(const ResolvedSpec &rs, AluSemantics sem, bool trace,
             const std::string &workDir = "");

    void step() override { run(1); }
    void run(uint64_t cycles) override;

    /** Generate/compile phase timings (Figure 5.1 rows). */
    const NativeBuild &build() const { return *build_; }

  private:
    /// @{ The library's callbacks. An exception from the device or
    /// sink is kept (the first one) and rethrown (rethrowKept()) once
    /// the library has returned and written its state back; it never
    /// unwinds through the library.
    template <typename F>
    static auto guarded(void *host, F &&body);
    static int32_t input(void *host, int32_t address);
    static void output(void *host, int32_t address, int32_t data);
    static void traceLine(void *host, long long cycle);
    static void traceMem(void *host, const char *mem, int write,
                         int32_t address, int32_t value);
    /// @}
    /** Adopt the library's cycle count and fold its counters into
     *  stats_; `alus`/`sels`/`mems` are the comb evaluations and
     *  memory updates of a faulting cycle's completed part. */
    void settle(uint64_t start, uint64_t alus, uint64_t sels,
                size_t mems);
    /** Settle a faulting run and raise its error: a kept callback
     *  exception (it came first), else the fault's SimError. */
    [[noreturn]] void fault(int code, uint64_t start);
    void rethrowKept();

    std::shared_ptr<const NativeBuild> build_;
    NativeCtx ctx_{};
    std::vector<int32_t *> memPtrs_; ///< NativeCtx::mems
    std::vector<uint64_t> memOps_;   ///< NativeCtx::memops
    std::vector<int32_t> scratch_;   ///< NativeCtx::scratch
    uint64_t alus_ = 0;              ///< ALUs evaluated per cycle
    uint64_t sels_ = 0;              ///< selectors evaluated per cycle
    std::exception_ptr thrown_;      ///< see guarded()
};

} // namespace asim

#endif // ASIM_SIM_NATIVE_ENGINE_HH

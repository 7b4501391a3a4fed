/**
 * @file
 * Native pipeline driver: generate C++ -> host compiler -> run.
 *
 * This is the full ASIM II workflow of the thesis (§5.2): code
 * generation, a host-compiler invocation, and a fast native simulation
 * run. Figure 5.1's three ASIM II rows (generate / compile / simulate)
 * map onto NativeResult's three duration fields.
 *
 * Two build products come out of it. compileSpec() builds the paper's
 * standalone program (`asim2c --lang=cpp`), which runBinary() and
 * compileAndRun() execute as a process. compileSpecShared() and
 * compileSpecCached() build the library form (generateCppLibrary)
 * with `-fPIC -shared -nodefaultlibs` (it needs no C or C++ runtime)
 * and load it into this process with `dlopen`:
 * that is what the "native" engine (sim/native_engine.hh) runs, one
 * call per run(n), through the NativeCtx ABI below (DESIGN.md §5).
 */

#ifndef ASIM_CODEGEN_NATIVE_HH
#define ASIM_CODEGEN_NATIVE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "codegen/codegen.hh"

namespace asim {

/**
 * The library form's ABI, mirrored field for field by the generated
 * `struct asim_ctx` (codegen/cpp_backend.cc; the loader checks the
 * library's `asim_ctx_size` against sizeof(NativeCtx)). The library
 * keeps no state of its own: it reads and writes the host's arrays
 * through these pointers, so instances sharing one loaded library
 * never share data.
 */
struct NativeCtx
{
    int32_t *vars;  ///< MachineState::vars
    int32_t **mems; ///< per memory: cells, &temp, &adr, &opn
    /** Per memory: reads (left 0: one access per memory per cycle,
     *  so the host derives them), writes, inputs, outputs. */
    uint64_t *memops;
    /** The library's working copy of vars and latches during a call:
     *  vars, then per memory temp, adr, opn (numVarSlots + 3 per
     *  memory entries). */
    int32_t *scratch;
    void *host;     ///< passed back to every callback
    int32_t (*input)(void *host, int32_t address);
    void (*output)(void *host, int32_t address, int32_t data);
    void (*trace)(void *host, long long cycle); ///< per-cycle line
    void (*memtrace)(void *host, const char *mem, int write,
                     int32_t address, int32_t value);
    long long cycle; ///< cycles completed; asim_run advances it

    /// @{ Set when asim_run returns a NativeFault: the faulting
    /// component's name (a string in the library) and the offending
    /// selector index, memory address, or ALU function.
    const char *faultname;
    int32_t faultvalue;
    /// @}
};

/** What the library's `asim_run(ctx, n)` returns: 0 once all n cycles
 *  ran, else the fault that stopped cycle ctx->cycle part way, with
 *  the state exactly where interp leaves it. */
enum NativeFault : int
{
    kNativeSelectorFault = 1,
    kNativeAddressFault = 2,
    kNativeAluFault = 3,
};

using NativeRunFn = int (*)(NativeCtx *ctx, uint64_t cycles);

/** Owns a directory and removes it, with its contents, when destroyed
 *  (empty = owns nothing). Move-only. */
class OwnedDir
{
  public:
    OwnedDir() = default;
    explicit OwnedDir(std::string path) : path_(std::move(path)) {}
    OwnedDir(OwnedDir &&o) noexcept : path_(std::exchange(o.path_, {})) {}
    OwnedDir &operator=(OwnedDir &&o) noexcept
    {
        std::swap(path_, o.path_);
        return *this;
    }
    ~OwnedDir();

    /** Leave the directory on disk. */
    void release() { path_.clear(); }

  private:
    std::string path_;
};

/** A generated-and-compiled simulator on disk, reusable across runs
 *  (the expensive half of the pipeline, done once). A library build
 *  is also loaded: `run` is its entry point, valid for as long as the
 *  build lives, and shareable read-only across any number of engine
 *  instances and threads. */
struct NativeBuild
{
    double generateSeconds = 0; ///< spec -> C++ text
    double compileSeconds = 0;  ///< host g++ invocation
    std::string workDir;        ///< artifact directory
    std::string generatedPath;  ///< the .cc file on disk
    std::string binaryPath;     ///< the program or the shared library

    /** Set when the build created workDir itself (a fresh temp dir):
     *  the directory goes with the build. */
    OwnedDir ownedDir;

    /// @{ Facts an engine must agree with at run time.
    uint64_t specHash = 0;   ///< specIdentityHash() of the source spec
    bool emitsTrace = false; ///< CodegenOptions::emitTrace
    AluSemantics aluSemantics = AluSemantics::Thesis; ///< baked in
    /// @}

    /** The loaded library's `asim_run` (null for a program build). */
    NativeRunFn run = nullptr;
};

/** One execution of a built simulator (the cheap half). */
struct NativeRun
{
    double runSeconds = 0; ///< whole process wall time
    double simSeconds = 0; ///< the loop itself (SIM_NS on stderr)
    int exitCode = 0;      ///< raw wait status (waitpid)
    std::string stdoutText;
    std::string stderrText;
};

/** Outcome of one generate+compile+run pipeline execution. */
struct NativeResult
{
    double generateSeconds = 0; ///< spec -> C++ text
    double compileSeconds = 0;  ///< host g++ invocation
    double runSeconds = 0;      ///< whole process wall time
    double simSeconds = 0;      ///< the loop itself (SIM_NS on stderr)
    int exitCode = 0;
    std::string stdoutText;     ///< trace + memory-mapped output
};

/** True if a host C++ compiler is available. */
bool hostCompilerAvailable();

/**
 * Generate the standalone C++ program for `rs` and compile it with
 * the host compiler.
 *
 * @param workDir directory for artifacts; empty = a fresh
 *        `asim2-native-*` directory under the system temp directory
 *        (TMPDIR, else /tmp), removed with the returned build. A
 *        failed host compile keeps it: the error names its
 *        compile.log.
 * @throws SimError if no compiler exists or compilation fails
 */
NativeBuild compileSpec(const ResolvedSpec &rs,
                        const CodegenOptions &opts = {},
                        std::string workDir = "");

/**
 * Generate the library form for `rs`, compile it `-fPIC -shared
 * -nodefaultlibs`, and load it. The returned pointer owns the loaded
 * library and the artifacts: when the last holder drops it, the
 * library is unloaded and a temp-created workDir removed.
 *
 * @throws SimError if no compiler exists, compilation fails, or the
 *         library does not load
 */
std::shared_ptr<const NativeBuild>
compileSpecShared(const ResolvedSpec &rs, const CodegenOptions &opts = {},
                  std::string workDir = "");

/**
 * compileSpecShared() behind a process-wide build cache keyed by
 * (spec identity hash, the codegen options the library honors):
 * repeated construction of native engines over the same machine —
 * heterogeneous batch manifests with repeated rows in particular —
 * share one generate+compile+load instead of paying it per job. The
 * cache holds weak references plus a small ring of strong ones, so
 * builds stay alive across back-to-back jobs but the cache never pins
 * unbounded disk. Thread-safe. Always compiles into a cache-owned
 * temp dir; callers that need a specific workDir use
 * compileSpecShared().
 *
 * @param specHash analysis/resolve.hh specIdentityHash(rs); taken as
 *        a parameter so the caller can reuse its own computation
 */
std::shared_ptr<const NativeBuild>
compileSpecCached(const ResolvedSpec &rs, const CodegenOptions &opts,
                  uint64_t specHash);

/** Total generate+compile pipelines this process has run, programs
 *  and libraries (test and diagnostics hook for the build cache's hit
 *  rate). */
uint64_t nativeCompileCount();

/**
 * Execute a built simulator for `cycles` (the program runs cycles+1
 * loop iterations, thesis semantics). Does not throw on a nonzero
 * exit: the caller inspects NativeRun::exitCode/stderrText.
 *
 * @throws SimError only if the process cannot be launched
 */
NativeRun runBinary(const NativeBuild &build, int64_t cycles,
                    const std::string &stdinText = "");

/**
 * Run the full pipeline (compileSpec + runBinary).
 *
 * @param rs resolved specification
 * @param cycles value for the generated program's cycle argument; the
 *        program executes cycles+1 loop iterations (thesis semantics)
 * @param opts codegen options
 * @param workDir directory for artifacts; empty = a temp dir removed
 *        before the call returns (compileSpec)
 * @param stdinText text piped to the program's standard input
 * @throws SimError if the compiler or the program fails
 */
NativeResult compileAndRun(const ResolvedSpec &rs, int64_t cycles,
                           const CodegenOptions &opts = {},
                           std::string workDir = "",
                           const std::string &stdinText = "");

} // namespace asim

#endif // ASIM_CODEGEN_NATIVE_HH

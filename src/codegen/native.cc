#include "codegen/native.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "support/logging.hh"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

namespace asim {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw SimError("cannot write " + path);
}

/** Where a spawned child's stdin, stdout and stderr go: a path each
 *  (empty = inherited). stderr may name stdout's path to share it. */
struct Redirects
{
    std::string in, out, err;
};

/** Run `argv` (argv[0] found on PATH when it holds no slash) with no
 *  shell between, so no path needs quoting, and wait for it.
 *  @return the raw wait status
 *  @throws SimError when the child cannot be started */
int
spawnWait(const std::vector<std::string> &argv, const Redirects &io)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    // Nothing between init and destroy can throw.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const auto redirect = [&](int fd, const std::string &path, int flags) {
        if (!path.empty())
            posix_spawn_file_actions_addopen(&fa, fd, path.c_str(), flags,
                                             0644);
    };
    constexpr int kWrite = O_WRONLY | O_CREAT | O_TRUNC;
    redirect(0, io.in, O_RDONLY);
    redirect(1, io.out, kWrite);
    if (!io.err.empty() && io.err == io.out)
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
    else
        redirect(2, io.err, kWrite);
    pid_t pid = 0;
    const int err =
        posix_spawnp(&pid, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (err != 0) {
        throw SimError("failed to launch " + argv[0] + ": " +
                       std::strerror(err));
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            throw SimError("lost the child " + argv[0]);
    }
    return status;
}

std::atomic<uint64_t> compileCount{0};

/** Cache key: spec identity x every codegen knob that changes the
 *  library form. */
uint64_t
optionsFingerprint(const CodegenOptions &o)
{
    uint64_t bits = 0;
    bits |= o.inlineConstAlu ? 1u : 0u;
    bits |= o.specializeConstMem ? 2u : 0u;
    bits |= o.emitTrace ? 4u : 0u;
    bits |= o.aluSemantics == AluSemantics::Thesis ? 8u : 0u;
    return bits;
}

/** Generate the program or the library form into `workDir` (a fresh
 *  temp dir when empty) and host-compile it. */
NativeBuild
buildForm(const ResolvedSpec &rs, const CodegenOptions &opts,
          std::string workDir, bool library)
{
    if (!hostCompilerAvailable())
        throw SimError("no host C++ compiler (g++) available");

    NativeBuild build;
    if (workDir.empty()) {
        std::error_code ec;
        const auto tmp = std::filesystem::temp_directory_path(ec);
        std::string tmpl = (tmp / "asim2-native-XXXXXX").string();
        if (ec || !mkdtemp(tmpl.data()))
            throw SimError("cannot create a temp dir from " + tmpl);
        workDir = tmpl;
        build.ownedDir = OwnedDir(workDir);
    }
    build.workDir = workDir;
    build.specHash = specIdentityHash(rs);
    build.emitsTrace = opts.emitTrace;
    build.aluSemantics = opts.aluSemantics;
    const std::string stem = library ? "/libsimulator" : "/simulator";
    build.generatedPath = workDir + stem + ".cc";
    build.binaryPath = workDir + stem + (library ? ".so" : "");

    compileCount.fetch_add(1, std::memory_order_relaxed);

    // Phase 1: generate code (Figure 5.1 "Generate code").
    auto g0 = Clock::now();
    writeFile(build.generatedPath, library ? generateCppLibrary(rs, opts)
                                           : generateCpp(rs, opts));
    build.generateSeconds = seconds(g0, Clock::now());

    // Phase 2: host compile (Figure 5.1 "Pascal Compile").
    auto c0 = Clock::now();
    // The library references nothing outside itself (<stdint.h>
    // only), so it links without libstdc++, libm or libc; should gcc
    // ever emit a helper call, dlopen(RTLD_NOW) binds it from this
    // process or fails loudly.
    std::vector<std::string> argv = {"g++", "-O2", "-fwrapv"};
    if (library)
        argv.insert(argv.end(), {"-fPIC", "-shared", "-nodefaultlibs"});
    argv.insert(argv.end(),
                {"-o", build.binaryPath, build.generatedPath});
    const std::string log = workDir + "/compile.log";
    const int rc = spawnWait(argv, {"", log, log});
    build.compileSeconds = seconds(c0, Clock::now());
    if (rc != 0) {
        build.ownedDir.release();
        throw SimError("generated code failed to compile (see " +
                       workDir + "/compile.log)");
    }
    return build;
}

} // namespace

OwnedDir::~OwnedDir()
{
    if (!path_.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
}

bool
hostCompilerAvailable()
{
    static const bool available = [] {
        try {
            return spawnWait({"g++", "--version"},
                             {"", "/dev/null", "/dev/null"}) == 0;
        } catch (const SimError &) {
            return false;
        }
    }();
    return available;
}

NativeBuild
compileSpec(const ResolvedSpec &rs, const CodegenOptions &opts,
            std::string workDir)
{
    return buildForm(rs, opts, std::move(workDir), /*library=*/false);
}

std::shared_ptr<const NativeBuild>
compileSpecShared(const ResolvedSpec &rs, const CodegenOptions &opts,
                  std::string workDir)
{
    auto build = std::make_unique<NativeBuild>(
        buildForm(rs, opts, std::move(workDir), /*library=*/true));
    void *lib = dlopen(build->binaryPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    const char *err = lib ? nullptr : dlerror();
    const auto *ctxSize =
        lib ? static_cast<const unsigned *>(dlsym(lib, "asim_ctx_size"))
            : nullptr;
    build->run = lib ? reinterpret_cast<NativeRunFn>(
                           dlsym(lib, "asim_run"))
                     : nullptr;
    if (!build->run || !ctxSize || *ctxSize != sizeof(NativeCtx)) {
        if (lib)
            dlclose(lib);
        throw SimError("cannot load the generated simulator library " +
                       build->binaryPath + ": " +
                       (err ? err : "ABI mismatch"));
    }
    return std::shared_ptr<const NativeBuild>(
        build.release(), [lib](const NativeBuild *b) {
            dlclose(lib);
            delete b;
        });
}

std::shared_ptr<const NativeBuild>
compileSpecCached(const ResolvedSpec &rs, const CodegenOptions &opts,
                  uint64_t specHash)
{
    using Key = std::pair<uint64_t, uint64_t>;
    // Weak map: any build still referenced by an engine is reused for
    // free. Strong ring: the most recent few builds survive the gap
    // between one job dropping its engines and the next identical job
    // constructing its own (sequential manifest rows).
    static std::mutex mu;
    static std::map<Key, std::weak_ptr<const NativeBuild>> cache;
    static std::deque<std::shared_ptr<const NativeBuild>> recent;
    constexpr size_t kKeepRecent = 8;

    const Key key{specHash, optionsFingerprint(opts)};
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end()) {
            if (auto hit = it->second.lock())
                return hit;
            cache.erase(it);
        }
    }

    // Compile outside the lock: a long host-compiler run must not
    // serialize unrelated cache hits. Two threads racing on the same
    // key may both compile; the second insert wins the map and both
    // builds stay valid for their holders.
    std::shared_ptr<const NativeBuild> build =
        compileSpecShared(rs, opts);

    std::lock_guard<std::mutex> lock(mu);
    cache[key] = build;
    recent.push_back(build);
    while (recent.size() > kKeepRecent)
        recent.pop_front();
    for (auto it = cache.begin(); it != cache.end();) {
        if (it->second.expired())
            it = cache.erase(it);
        else
            ++it;
    }
    return build;
}

uint64_t
nativeCompileCount()
{
    return compileCount.load(std::memory_order_relaxed);
}

NativeRun
runBinary(const NativeBuild &build, int64_t cycles,
          const std::string &stdinText)
{
    // Phase 3: run (Figure 5.1 "Simulation time").
    const std::string outPath = build.workDir + "/stdout.txt";
    const std::string errPath = build.workDir + "/stderr.txt";
    const std::string inPath = build.workDir + "/stdin.txt";
    writeFile(inPath, stdinText);

    NativeRun run;
    auto r0 = Clock::now();
    run.exitCode = spawnWait({build.binaryPath, std::to_string(cycles)},
                             {inPath, outPath, errPath});
    run.runSeconds = seconds(r0, Clock::now());
    run.stdoutText = readFile(outPath);
    run.stderrText = readFile(errPath);

    // The program self-times its loop and reports SIM_NS on stderr.
    size_t at = run.stderrText.find("SIM_NS=");
    if (at != std::string::npos) {
        run.simSeconds =
            std::strtod(run.stderrText.c_str() + at + 7, nullptr) /
            1e9;
    }
    return run;
}

NativeResult
compileAndRun(const ResolvedSpec &rs, int64_t cycles,
              const CodegenOptions &opts, std::string workDir,
              const std::string &stdinText)
{
    NativeBuild build = compileSpec(rs, opts, std::move(workDir));
    NativeRun run = runBinary(build, cycles, stdinText);

    NativeResult res;
    res.generateSeconds = build.generateSeconds;
    res.compileSeconds = build.compileSeconds;
    res.runSeconds = run.runSeconds;
    res.simSeconds = run.simSeconds;
    res.exitCode = run.exitCode;
    res.stdoutText = run.stdoutText;
    if (run.exitCode != 0) {
        throw SimError("generated simulator exited with status " +
                       std::to_string(run.exitCode) + ": " +
                       run.stderrText);
    }
    return res;
}

} // namespace asim

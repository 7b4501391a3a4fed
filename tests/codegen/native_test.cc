/** @file
 * End-to-end tests of the native pipeline: generated C++ is compiled
 * with the host compiler, executed, and its output compared
 * byte-for-byte with the interpreter and the VM — the three execution
 * systems of the reproduction.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "analysis/resolve.hh"
#include "codegen/native.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "machines/tiny_computer.hh"
#include "sim/engine.hh"
#include "sim/native_engine.hh"

namespace asim {
namespace {

enum class Kind { Interp, Vm, Native };

/** Run an engine with trace+I/O interleaved on one stream, exactly
 *  like the generated program's stdout. */
std::string
engineOutput(const ResolvedSpec &rs, uint64_t cycles, Kind kind,
             bool traced = true)
{
    std::ostringstream os;
    std::istringstream is;
    StreamTrace trace(os);
    StreamIo io(is, os);
    EngineConfig cfg;
    cfg.trace = traced ? &trace : nullptr;
    cfg.io = &io;
    std::unique_ptr<Engine> e;
    if (kind == Kind::Native)
        e = std::make_unique<NativeEngine>(rs, cfg);
    else
        e = kind == Kind::Vm ? makeVm(rs, cfg) : makeInterpreter(rs, cfg);
    e->run(cycles);
    return os.str();
}

/** The `asim2-native-*` build directories directly under `dir`. */
size_t
nativeDirs(const std::filesystem::path &dir)
{
    size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        n += entry.path().filename().string().starts_with("asim2-native-");
    return n;
}

class Native : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!hostCompilerAvailable())
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_F(Native, CounterMatchesEngines)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 40));
    // The generated program runs cycles+1 iterations (thesis loop).
    NativeResult res = compileAndRun(rs, 40);
    std::string expect = engineOutput(rs, 41, Kind::Interp);
    EXPECT_EQ(res.stdoutText, expect);
    EXPECT_EQ(engineOutput(rs, 41, Kind::Vm), expect);
    EXPECT_GT(res.compileSeconds, 0.0);
    EXPECT_GE(res.simSeconds, 0.0);
}

TEST_F(Native, TinyComputerMatchesEngines)
{
    int result = 0;
    auto img = tinyModProgram(23, 7, result);
    ResolvedSpec rs = resolveText(tinyComputerSpec(img, 300));
    NativeResult res = compileAndRun(rs, 300);
    EXPECT_EQ(res.stdoutText, engineOutput(rs, 301, Kind::Interp));
}

TEST_F(Native, StackMachineSievePrintsPrimes)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(8), 8000));
    // Trace-free build: stdout carries only the memory-mapped output.
    CodegenOptions opts;
    opts.emitTrace = false;
    NativeResult res = compileAndRun(rs, 8000, opts);
    std::string expect = engineOutput(rs, 8001, Kind::Vm, false);
    EXPECT_EQ(res.stdoutText, expect);
    // And the primes are in there.
    EXPECT_NE(res.stdoutText.find("3\n5\n7\n11\n13\n17\n19\n"),
              std::string::npos);
}

TEST_F(Native, SyntheticSpecsMatch)
{
    // A couple of random machines through the whole pipeline.
    for (uint32_t seed : {3u, 11u}) {
        SyntheticOptions opts;
        opts.seed = seed;
        opts.withIo = false; // stdin-free comparison
        ResolvedSpec rs = resolve(generateSynthetic(opts));
        NativeResult res = compileAndRun(rs, 50);
        EXPECT_EQ(res.stdoutText, engineOutput(rs, 51, Kind::Interp))
            << "seed " << seed;
    }
}

TEST_F(Native, ReportsPipelinePhases)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    NativeResult res = compileAndRun(rs, 10);
    EXPECT_GT(res.generateSeconds, 0.0);
    EXPECT_GT(res.compileSeconds, 0.0);
    EXPECT_GT(res.runSeconds, 0.0);
    EXPECT_EQ(res.exitCode, 0);
}

TEST_F(Native, ComponentNamesNeverCollideWithHelpers)
{
    // Memories named after generated helpers. `adr` + "fail" once
    // redeclared the address-fault helper, so neither the program nor
    // the library compiled. Traced reads and writes reach the trace*
    // helpers too.
    ResolvedSpec rs = resolveText("# memories named after helpers\n"
                                  "fail* land* dologic* next .\n"
                                  "A next 4 fail 1\n"
                                  "M fail 0 next 1 1\n"
                                  "M land fail.0.1 fail 5 4\n"
                                  "M dologic land.0.1 0 8 -4 7 8 9 10\n"
                                  ".\n");
    const std::string vm = engineOutput(rs, 40, Kind::Vm);
    EXPECT_EQ(engineOutput(rs, 40, Kind::Native), vm);
    // The asim2c --lang=cpp program: 39 + 1 thesis loop iterations.
    EXPECT_EQ(compileAndRun(rs, 39).stdoutText, vm);
}

TEST_F(Native, TempBuildDirsGoWithTheirBuilds)
{
    // Builds go under the system temp directory; a directory of this
    // test's own keeps the count clear of concurrent tests.
    namespace fs = std::filesystem;
    const fs::path local = fs::temp_directory_path() /
                           ("asim-native-test-" + std::to_string(getpid()));
    fs::create_directories(local);
    const char *saved = std::getenv("TMPDIR");
    const std::string savedValue = saved ? saved : "";
    setenv("TMPDIR", local.c_str(), 1);

    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    {
        NativeBuild build = compileSpec(rs);
        EXPECT_EQ(nativeDirs(local), 1u);
    }
    EXPECT_EQ(nativeDirs(local), 0u) << "compileSpec left its temp dir";
    compileAndRun(rs, 10);
    EXPECT_EQ(nativeDirs(local), 0u) << "compileAndRun left its temp dir";
    compileSpecShared(rs).reset();
    EXPECT_EQ(nativeDirs(local), 0u) << "a library build left its dir";

    if (saved)
        setenv("TMPDIR", savedValue.c_str(), 1);
    else
        unsetenv("TMPDIR");
    fs::remove_all(local);
}

TEST_F(Native, BuildsUnderADirNamedWithAQuoteAndASpace)
{
    // The host compiler and the program start from an argv, with no
    // shell to misread a quote in a path.
    namespace fs = std::filesystem;
    const fs::path local =
        fs::temp_directory_path() /
        ("asim-native-test-" + std::to_string(getpid()) + " it's");
    fs::create_directories(local);
    const char *saved = std::getenv("TMPDIR");
    const std::string savedValue = saved ? saved : "";
    setenv("TMPDIR", local.c_str(), 1);

    // A machine no other test builds, so the engine's build cache
    // misses and compiles under TMPDIR.
    ResolvedSpec rs = resolveText(counterSpec(7, 12));
    const std::string expect = engineOutput(rs, 13, Kind::Interp);
    EXPECT_EQ(engineOutput(rs, 13, Kind::Native), expect);
    EXPECT_EQ(compileAndRun(rs, 12).stdoutText, expect);
    const fs::path workDir = local / "work dir 'quoted'";
    fs::create_directories(workDir);
    EXPECT_EQ(compileAndRun(rs, 12, {}, workDir.string()).stdoutText,
              expect);
    EXPECT_TRUE(fs::exists(workDir / "simulator"));

    if (saved)
        setenv("TMPDIR", savedValue.c_str(), 1);
    else
        unsetenv("TMPDIR");
    fs::remove_all(local);
}

TEST_F(Native, BuildCacheSharesIdenticalCompiles)
{
    ResolvedSpec rs = resolveText(counterSpec(5, 60));
    uint64_t hash = specIdentityHash(rs);
    CodegenOptions opts;

    uint64_t before = nativeCompileCount();
    auto a = compileSpecCached(rs, opts, hash);
    auto b = compileSpecCached(rs, opts, hash);
    EXPECT_EQ(a.get(), b.get())
        << "identical (spec, options) must share one build";
    EXPECT_EQ(nativeCompileCount(), before + 1);

    // Any option that changes the emitted library is a new key.
    CodegenOptions traced = opts;
    traced.emitTrace = !opts.emitTrace;
    auto c = compileSpecCached(rs, traced, hash);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(nativeCompileCount(), before + 2);

    // A different spec is a new key even with equal options.
    ResolvedSpec other = resolveText(counterSpec(6, 60));
    auto d = compileSpecCached(other, opts, specIdentityHash(other));
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(nativeCompileCount(), before + 3);

    // The strong ring keeps recent builds alive across the gap
    // between jobs: dropping every handle and asking again must
    // still hit.
    a.reset();
    b.reset();
    auto e = compileSpecCached(rs, opts, hash);
    EXPECT_EQ(nativeCompileCount(), before + 3) << "cache miss";
}

} // namespace
} // namespace asim

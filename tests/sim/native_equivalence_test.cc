/** @file
 * Native-engine equivalence leg (ROADMAP item): the "native" engine —
 * generated C++ compiled by the host compiler, loaded in process —
 * must match the "vm" engine byte-for-byte on every on-disk
 * specification: combined trace + I/O text, final machine state, and
 * cycle count. Engines are constructed exclusively by name through
 * the Simulation facade.
 *
 * Built only when ASIM_NATIVE_EQUIVALENCE=ON (the default); skipped
 * at runtime when no host compiler exists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

struct SpecCase
{
    const char *file;      ///< name under specs/
    const char *stdinText; ///< scripted input, mirrored to both sides
};

std::ostream &
operator<<(std::ostream &os, const SpecCase &c)
{
    return os << c.file;
}

const SpecCase kCases[] = {
    {"counter.asim", ""},
    {"traffic_light.asim", ""},
    {"fig43_memory.asim", ""},
    {"dual_counter.asim", ""},
    // echo consumes one integer per cycle: 5 inclusive iterations.
    {"echo.asim", "10\n20\n30\n40\n50\n"},
    {"gcd.asim", ""},
    {"multiplier.asim", ""},
};

struct RunResult
{
    std::string text; ///< trace + I/O interleaved on one stream
    MachineState state;
    uint64_t cycle = 0;
};

RunResult
runSpec(const char *engine, const SpecCase &c)
{
    std::ostringstream os;
    std::istringstream is(c.stdinText);

    SimulationOptions opts;
    opts.specFile = std::string(ASIM_SPECS_DIR) + "/" + c.file;
    opts.engine = engine;
    // Interactive stream I/O mirrors the generated program's stdio
    // exactly (char reads at address 0, prompts above address 1);
    // every engine, native included, reads and writes it through the
    // same IoDevice.
    opts.ioMode = IoMode::Interactive;
    opts.ioIn = &is;
    opts.ioOut = &os;
    opts.traceStream = &os;

    Simulation sim(opts);
    int64_t cycles = sim.defaultCycles();
    EXPECT_GT(cycles, 0) << c.file << " names no cycle count";
    sim.run(static_cast<uint64_t>(cycles));

    RunResult r;
    r.text = os.str();
    r.state = sim.engine().state();
    r.cycle = sim.cycle();
    return r;
}

class NativeEquivalence : public ::testing::TestWithParam<SpecCase>
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_P(NativeEquivalence, MatchesVmOnEveryChannel)
{
    const SpecCase &c = GetParam();
    RunResult vm = runSpec("vm", c);
    RunResult native = runSpec("native", c);
    EXPECT_EQ(native.text, vm.text) << c.file;
    EXPECT_TRUE(native.state == vm.state)
        << c.file << ": final state differs";
    EXPECT_EQ(native.cycle, vm.cycle) << c.file;
}

/** Drive the native engine cycle by cycle (one library call each)
 *  against a vm stepped in lockstep, comparing every traced
 *  observable every cycle — the interactive-stepping workload the old
 *  replay adapter made quadratic. */
TEST_P(NativeEquivalence, StepsInLockstepWithVm)
{
    const SpecCase &c = GetParam();
    std::istringstream isVm(c.stdinText), isNative(c.stdinText);
    std::ostringstream osVm, osNative;

    SimulationOptions opts;
    opts.specFile = std::string(ASIM_SPECS_DIR) + "/" + c.file;
    opts.ioMode = IoMode::Interactive;
    opts.traceStream = nullptr;

    opts.engine = "vm";
    opts.ioIn = &isVm;
    opts.ioOut = &osVm;
    Simulation vm(opts);

    opts.engine = "native";
    opts.ioIn = &isNative;
    opts.ioOut = &osNative;
    Simulation native(opts);

    int64_t cycles = std::min<int64_t>(vm.defaultCycles(), 25);
    ASSERT_GT(cycles, 0);
    for (int64_t i = 0; i < cycles; ++i) {
        vm.step();
        native.step();
        ASSERT_EQ(native.cycle(), vm.cycle());
        for (const auto &item : vm.resolved().traceList) {
            const std::string_view name = vm.resolved().name(item.name);
            ASSERT_EQ(native.value(name), vm.value(name))
                << c.file << " cycle " << vm.cycle() << " " << name;
        }
    }
    EXPECT_TRUE(native.engine().state() == vm.engine().state())
        << c.file;
    EXPECT_EQ(osNative.str(), osVm.str()) << c.file;
}

/** Injected faults: the native engine's spliced spec and @cycle state
 *  upsets match the vm's on every channel. */
TEST(NativeFaultEquivalence, InjectedFaultsMatchVm)
{
    if (!NativeEngine::available())
        GTEST_SKIP() << "no host compiler";

    for (const char *fault :
         {"next:1:set1", "count:0:toggle@10"}) {
        RunResult results[2];
        const char *engines[] = {"vm", "native"};
        for (int i = 0; i < 2; ++i) {
            std::ostringstream os;
            std::istringstream is;
            SimulationOptions opts;
            opts.specFile =
                std::string(ASIM_SPECS_DIR) + "/counter.asim";
            opts.engine = engines[i];
            opts.fault = fault;
            opts.ioMode = IoMode::Interactive;
            opts.ioIn = &is;
            opts.ioOut = &os;
            opts.traceStream = &os;
            Simulation sim(opts);
            sim.run(static_cast<uint64_t>(sim.defaultCycles()));
            results[i] = {os.str(), sim.engine().state(),
                          sim.cycle()};
        }
        EXPECT_EQ(results[1].text, results[0].text) << fault;
        EXPECT_TRUE(results[1].state == results[0].state) << fault;
        EXPECT_EQ(results[1].cycle, results[0].cycle) << fault;
    }
}

/** One fault contract across engines: a native runtime fault raises
 *  interp's SimError text and leaves cycle(), state, statistics, and
 *  trace exactly where interp leaves them; reset() and restore()
 *  recover. Covers a memory address, a selector index, and a computed
 *  ALU function out of range. */
TEST(NativeFaultEquivalence, RuntimeFaultMatchesInterp)
{
    if (!NativeEngine::available())
        GTEST_SKIP() << "no host compiler";

    const char *specs[] = {
        // walks off the end of a 10-cell memory at cycle 10, after a
        // read memory's access in the same cycle
        "# memory fault\n"
        "count* next rom .\n"
        "A next 4 count 1\n"
        "M count 0 next 1 1\n"
        "M rom count 0 0 16\n"
        "M mem count count 1 10\n"
        ".\n",
        // a selector runs out of cases at cycle 3
        "# selector fault\n"
        "s* count* next .\n"
        "A next 4 count 1\n"
        "S s count 5 6 7\n"
        "M count 0 next 1 1\n"
        ".\n",
        // a computed ALU function leaves 0..13 at cycle 14
        "# alu fault\n"
        "f* count* next .\n"
        "A next 4 count 1\n"
        "A f count next 1\n"
        "M count 0 next 1 1\n"
        ".\n",
    };
    for (const char *spec : specs) {
        struct Outcome
        {
            std::string error, trace, checkpoint;
            uint64_t cycle = 0;
            MachineState state;
            std::string recovered;
        } out[2];
        const char *engines[] = {"interp", "native"};
        for (int i = 0; i < 2; ++i) {
            std::ostringstream trace;
            SimulationOptions opts;
            opts.specText = spec;
            opts.engine = engines[i];
            opts.traceStream = &trace;
            Simulation sim(opts);
            sim.run(2);
            const EngineSnapshot early = sim.snapshot();
            try {
                sim.run(40);
            } catch (const SimError &e) {
                out[i].error = e.what();
            }
            out[i].trace = trace.str();
            out[i].cycle = sim.cycle();
            out[i].state = sim.engine().state();
            out[i].checkpoint =
                encodeCheckpoint(sim.snapshot(), sim.specHash(), "x");
            // Both ways back to a healthy timeline.
            sim.reset();
            sim.run(2);
            sim.restore(early);
            sim.run(1);
            out[i].recovered =
                encodeCheckpoint(sim.snapshot(), sim.specHash(), "x");
        }
        EXPECT_FALSE(out[0].error.empty()) << spec;
        EXPECT_EQ(out[1].error, out[0].error) << spec;
        EXPECT_EQ(out[1].trace, out[0].trace) << spec;
        EXPECT_EQ(out[1].cycle, out[0].cycle) << spec;
        EXPECT_TRUE(out[1].state == out[0].state) << spec;
        EXPECT_EQ(out[1].checkpoint, out[0].checkpoint) << spec;
        EXPECT_EQ(out[1].recovered, out[0].recovered) << spec;
    }
}

std::string
caseName(const ::testing::TestParamInfo<SpecCase> &info)
{
    std::string name = info.param.file;
    if (auto dot = name.find('.'); dot != std::string::npos)
        name.resize(dot);
    return name;
}

INSTANTIATE_TEST_SUITE_P(Specs, NativeEquivalence,
                         ::testing::ValuesIn(kCases), caseName);

} // namespace
} // namespace asim

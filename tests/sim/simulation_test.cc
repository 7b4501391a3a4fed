/** @file
 * Tests of the Simulation facade and the engine table: pipeline
 * assembly from text/file/pre-resolved sources, engine selection by
 * name, scripted I/O, run control (runUntil, watchpoints), instances
 * built off shared artifacts, and snapshot/restore determinism —
 * restoring mid-run must continue cycle-for-cycle identical to an
 * uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "lang/writer.hh"
#include "machines/counter.hh"
#include "machines/tiny_computer.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

/** Integer-echo machine: input address 1 routed to output address 1
 *  (same shape as specs/echo.asim). */
const char *kEchoSpec = "# integer echo\n"
                        "= 4\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

TEST(EngineTable, ListsEveryEngineInNameOrder)
{
    std::vector<std::string_view> names;
    for (const EngineInfo &e : kEngines) {
        names.push_back(e.name);
        EXPECT_FALSE(e.description.empty()) << e.name;
    }
    EXPECT_EQ(names, (std::vector<std::string_view>{"interp", "native",
                                                    "symbolic", "vm"}));

    // Every row builds the engine it names.
    for (const EngineInfo &e : kEngines) {
        if (e.name == "native" && !NativeEngine::available())
            continue;
        SimulationOptions opts;
        opts.specText = counterSpec(4, 10);
        opts.engine = e.name;
        Simulation sim(opts);
        sim.run(5);
        EXPECT_EQ(sim.engineName(), e.name);
        EXPECT_EQ(sim.value("count"), 5) << e.name;
    }
}

TEST(EngineRegistryTest, UnknownEngineNamesAlternatives)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 10);
    opts.engine = "jit";
    try {
        Simulation sim(opts);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_STREQ(e.what(), "unknown engine <jit>; registered engines: "
                               "interp, native, symbolic, vm");
    }
}

TEST(SimulationTest, RunsFromSpecText)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    Simulation sim(opts);
    sim.run(20);
    EXPECT_EQ(sim.cycle(), 20u);
    EXPECT_EQ(sim.value("count"), 20 % 16);
    EXPECT_EQ(sim.engineName(), "vm");
}

TEST(SimulationTest, RunsFromSpecFile)
{
    SimulationOptions opts;
    opts.specFile = std::string(ASIM_SPECS_DIR) + "/counter.asim";
    opts.engine = "interp";
    Simulation sim(opts);
    EXPECT_TRUE(sim.diagnostics().clean());
    sim.run(5);
    EXPECT_EQ(sim.value("count"), 5);
}

TEST(SimulationTest, RequiresExactlyOneSource)
{
    SimulationOptions none;
    EXPECT_THROW(Simulation sim(none), SimError);

    SimulationOptions both;
    both.specText = counterSpec(4, 10);
    both.specFile = "x.asim";
    EXPECT_THROW(Simulation sim(both), SimError);

    // A pre-resolved spec plus a text/file source is also ambiguous.
    SimulationOptions mixed;
    mixed.resolved = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(4, 10)));
    mixed.specText = kEchoSpec;
    EXPECT_THROW(Simulation sim(mixed), SimError);
}

TEST(SimulationTest, LoadScriptParsesAndValidates)
{
    std::string path = "/tmp/asim_simulation_test_script.txt";
    {
        std::ofstream f(path);
        f << "# comment line\n10 -3 0x10 # trailing comment\n7\n";
    }
    EXPECT_EQ(Simulation::loadScript(path),
              (std::vector<int32_t>{10, -3, 16, 7}));

    {
        std::ofstream f(path);
        f << "1 two 3\n";
    }
    EXPECT_THROW(Simulation::loadScript(path), SimError);

    // Out-of-32-bit-range values are rejected, not wrapped.
    {
        std::ofstream f(path);
        f << "3000000000\n";
    }
    EXPECT_THROW(Simulation::loadScript(path), SimError);

    std::remove(path.c_str());
    EXPECT_THROW(Simulation::loadScript(path), SimError);
}

TEST(SimulationTest, DefaultCyclesFollowsSpec)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 19);
    Simulation sim(opts);
    EXPECT_EQ(sim.defaultCycles(), 20); // thesis loop is inclusive
}

TEST(SimulationTest, ScriptIoFeedsInputsAndRendersOutputs)
{
    std::ostringstream os;
    SimulationOptions opts;
    opts.specText = kEchoSpec;
    opts.ioMode = IoMode::Script;
    opts.scriptInputs = {10, 20, 30, 40, 50};
    opts.ioOut = &os;
    Simulation sim(opts);
    sim.run(sim.defaultCycles());
    EXPECT_EQ(os.str(), "10\n20\n30\n40\n50\n");
}

TEST(SimulationTest, TraceStreamMatchesDirectEngine)
{
    std::ostringstream viaFacade;
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    opts.traceStream = &viaFacade;
    Simulation sim(opts);
    sim.run(10);

    // Reference: the engine driven directly (unit-level API).
    std::ostringstream direct;
    StreamTrace trace(direct);
    EngineConfig cfg;
    cfg.trace = &trace;
    auto e = makeVm(resolveText(counterSpec(4, 100)), cfg);
    e->run(10);

    EXPECT_EQ(viaFacade.str(), direct.str());
}

TEST(SimulationTest, RunUntilWatchpoint)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    Simulation sim(opts);
    uint64_t steps = sim.runUntilValue("count", 7, 1000);
    EXPECT_EQ(sim.value("count"), 7);
    EXPECT_EQ(sim.cycle(), steps);
    EXPECT_LT(steps, 1000u);
}

TEST(SimulationTest, RunUntilCapsAtMaxCycles)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    Simulation sim(opts);
    uint64_t steps =
        sim.runUntil([](const Simulation &) { return false; }, 10);
    EXPECT_EQ(steps, 10u);
    EXPECT_EQ(sim.cycle(), 10u);
}

TEST(SimulationTest, WatchOnUnknownComponentThrowsBeforeStepping)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    Simulation sim(opts);
    sim.run(3);
    try {
        sim.runUntilValue("nosuch", 1, 10);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_STREQ(e.what(), "unknown component <nosuch>");
    }
    EXPECT_EQ(sim.cycle(), 3u);
}

TEST(SimulationTest, BatchSharesOneResolveAcrossInstances)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    const SimulationOptions shared = Simulation::shareBatchArtifacts(opts);
    std::vector<std::unique_ptr<Simulation>> sims;
    for (int i = 0; i < 4; ++i)
        sims.push_back(std::make_unique<Simulation>(shared));
    for (size_t i = 1; i < sims.size(); ++i) {
        EXPECT_EQ(&sims[i]->resolved(), &sims[0]->resolved())
            << "batch must share one ResolvedSpec";
    }
    // Instances are independent.
    for (size_t i = 0; i < sims.size(); ++i)
        sims[i]->run(i + 1);
    for (size_t i = 0; i < sims.size(); ++i) {
        EXPECT_EQ(sims[i]->cycle(), i + 1);
        EXPECT_EQ(sims[i]->value("count"),
                  static_cast<int32_t>(i + 1));
    }
}

TEST(SimulationTest, SymbolicBatchSharesOneParsedTree)
{
    SimulationOptions opts;
    opts.engine = "symbolic";
    opts.specText = counterSpec(4, 100);
    SimulationOptions shared = Simulation::shareBatchArtifacts(opts);
    ASSERT_TRUE(shared.ast) << "symbolic batches share one parsed tree";
    EXPECT_EQ(writeSpec(*shared.ast), shared.resolved->text);
    std::vector<std::unique_ptr<Simulation>> sims;
    for (int i = 0; i < 3; ++i)
        sims.push_back(std::make_unique<Simulation>(shared));
    // Each engine holds the shared tree instead of parsing its own.
    EXPECT_EQ(shared.ast.use_count(), 4);
    for (auto &sim : sims) {
        sim->run(5);
        EXPECT_EQ(sim->value("count"), 5);
    }
    // Other engines do not walk a tree and get none.
    opts.engine = "vm";
    EXPECT_FALSE(Simulation::shareBatchArtifacts(opts).ast);
}

// ---------------------------------------------------------------------
// Snapshot / restore determinism (both in-process engines): restoring
// mid-run must yield cycle-for-cycle identical traces, states, and
// statistics versus an uninterrupted run.
// ---------------------------------------------------------------------

class SnapshotDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(SnapshotDeterminism, MidRunRestoreContinuesIdentically)
{
    int result = 0;
    auto img = tinyModProgram(23, 7, result);
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(tinyComputerSpec(img, 400)));

    SimulationOptions opts;
    opts.resolved = rs;
    opts.engine = GetParam();

    // Uninterrupted reference run: 300 cycles.
    std::ostringstream osRef;
    SimulationOptions refOpts = opts;
    refOpts.traceStream = &osRef;
    Simulation ref(refOpts);
    ref.run(300);

    // Run A: snapshot at 150, then continue — the snapshot must not
    // perturb the run.
    std::ostringstream osA;
    SimulationOptions aOpts = opts;
    aOpts.traceStream = &osA;
    Simulation a(aOpts);
    a.run(150);
    size_t split = osA.str().size();
    EngineSnapshot snap = a.snapshot();
    EXPECT_EQ(snap.cycle, 150u);
    a.run(150);
    EXPECT_EQ(osA.str(), osRef.str());

    // Run B: a fresh simulation adopting the snapshot must replay
    // the identical tail.
    std::ostringstream osB;
    SimulationOptions bOpts = opts;
    bOpts.traceStream = &osB;
    Simulation b(bOpts);
    b.restore(snap);
    EXPECT_EQ(b.cycle(), 150u);
    b.run(150);
    EXPECT_EQ(osB.str(), osRef.str().substr(split));
    EXPECT_TRUE(b.engine().state() == a.engine().state());
    EXPECT_EQ(b.stats().cycles, a.stats().cycles);
    EXPECT_EQ(b.stats().aluEvals, a.stats().aluEvals);
    EXPECT_EQ(b.stats().selEvals, a.stats().selEvals);
    EXPECT_EQ(b.stats().summary(), a.stats().summary());
}

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotDeterminism,
                         ::testing::Values("interp", "vm"));

TEST(SnapshotTest, CrossEngineRestore)
{
    // A snapshot taken from the interpreter restores into the VM and
    // continues identically (same resolved spec, same semantics).
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(6, 100)));
    SimulationOptions opts;
    opts.resolved = rs;

    opts.engine = "interp";
    Simulation interp(opts);
    interp.run(40);

    opts.engine = "vm";
    Simulation vm(opts);
    vm.restore(interp.snapshot());
    vm.run(10);
    interp.run(10);
    EXPECT_TRUE(vm.engine().state() == interp.engine().state());
    EXPECT_EQ(vm.cycle(), interp.cycle());
}

TEST(SnapshotTest, RestoreRejectsShapeMismatch)
{
    SimulationOptions counter;
    counter.specText = counterSpec(4, 10);
    Simulation a(counter);
    a.run(3);

    SimulationOptions echo;
    echo.specText = kEchoSpec;
    Simulation b(echo);
    EXPECT_THROW(b.restore(a.snapshot()), SimError);
}

// ---------------------------------------------------------------------
// Native engine through the registry (skipped without a host
// compiler; the full per-spec equivalence leg lives in
// native_equivalence_test.cc).
// ---------------------------------------------------------------------

class NativeFacade : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_F(NativeFacade, MatchesVmThroughFacade)
{
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(4, 100)));

    std::ostringstream osVm, osNative;
    SimulationOptions opts;
    opts.resolved = rs;

    opts.engine = "vm";
    opts.traceStream = &osVm;
    Simulation vm(opts);
    vm.run(10);

    opts.engine = "native";
    opts.traceStream = &osNative;
    Simulation native(opts);
    native.run(10);

    EXPECT_EQ(osNative.str(), osVm.str());
    EXPECT_TRUE(native.engine().state() == vm.engine().state());
    EXPECT_EQ(native.value("count"), vm.value("count"));
    EXPECT_EQ(native.cycle(), vm.cycle());
    EXPECT_EQ(native.stats().cycles, 10u);
}

TEST_F(NativeFacade, IncrementalRunsReplayDeterministically)
{
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    opts.engine = "native";
    std::ostringstream os;
    opts.traceStream = &os;
    Simulation sim(opts);
    sim.run(3);
    EXPECT_EQ(sim.value("count"), 3);
    sim.run(4);
    EXPECT_EQ(sim.value("count"), 7);
    EXPECT_EQ(sim.cycle(), 7u);

    // One uninterrupted run produces the same trace.
    std::ostringstream osRef;
    SimulationOptions refOpts = opts;
    refOpts.traceStream = &osRef;
    Simulation ref(refOpts);
    ref.run(7);
    EXPECT_EQ(os.str(), osRef.str());
}

TEST_F(NativeFacade, RestoreContinuesIdentically)
{
    std::ostringstream osA, osB;
    SimulationOptions opts;
    opts.specText = counterSpec(4, 100);
    opts.engine = "native";
    opts.traceStream = &osA;
    Simulation sim(opts);
    sim.run(5);
    EngineSnapshot snap = sim.snapshot();
    EXPECT_EQ(snap.cycle, 5u);
    sim.run(7); // wander past the snapshot point

    // Restore copies the snapshot (no replay, nothing traced), and
    // the continuation matches an uninterrupted run cycle for cycle.
    sim.restore(snap);
    EXPECT_EQ(sim.cycle(), 5u);
    EXPECT_EQ(sim.value("count"), 5);

    opts.traceStream = &osB;
    Simulation ref(opts);
    ref.run(12);
    osA.str("");
    sim.run(7);
    EXPECT_EQ(sim.value("count"), ref.value("count"));
    EXPECT_TRUE(sim.engine().state() == ref.engine().state());
    // osA now holds exactly the post-restore cycles 5..11.
    EXPECT_NE(osB.str().find(osA.str()), std::string::npos);
}

TEST_F(NativeFacade, RestoreFromVmSnapshotAcrossEngines)
{
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(4, 100)));
    SimulationOptions opts;
    opts.resolved = rs;
    opts.engine = "vm";
    Simulation vm(opts);
    vm.run(9);

    opts.engine = "native";
    Simulation native(opts);
    native.restore(vm.snapshot());
    EXPECT_EQ(native.cycle(), 9u);
    EXPECT_EQ(native.value("count"), vm.value("count"));
    native.run(3);
    vm.run(3);
    EXPECT_TRUE(native.engine().state() == vm.engine().state());
}

TEST_F(NativeFacade, RepeatedConstructionSharesOneBuild)
{
    // The cross-job build cache: two independent Simulations over
    // the same resolved spec and options must adopt the same
    // generated+compiled artifact (one host-compiler invocation for
    // a whole heterogeneous batch of identical rows).
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(7, 50)));
    SimulationOptions opts;
    opts.resolved = rs;
    opts.engine = "native";
    Simulation s1(opts);
    Simulation s2(opts);
    auto *n1 = dynamic_cast<NativeEngine *>(&s1.engine());
    auto *n2 = dynamic_cast<NativeEngine *>(&s2.engine());
    ASSERT_NE(n1, nullptr);
    ASSERT_NE(n2, nullptr);
    EXPECT_EQ(&n1->build(), &n2->build());
    // ...while both run independently on their own state.
    s1.run(3);
    s2.run(9);
    EXPECT_EQ(s1.value("count"), 3);
    EXPECT_EQ(s2.value("count"), 9);
}

TEST_F(NativeFacade, AcceptsIoDevice)
{
    // Native takes the same IoDevice as every other engine.
    VectorIo io;
    for (int v : {4, 5, 6, 7, 8})
        io.pushInput(v);
    SimulationOptions opts;
    opts.specText = kEchoSpec;
    opts.engine = "native";
    opts.config.io = &io;
    Simulation sim(opts);
    sim.run(sim.defaultCycles());
    EXPECT_EQ(io.outputsAt(1), (std::vector<int32_t>{4, 5, 6, 7, 8}));
    EXPECT_EQ(sim.snapshot().ioValues, 5u);
}

TEST_F(NativeFacade, ScriptedStdinReachesProgram)
{
    std::ostringstream os;
    SimulationOptions opts;
    opts.specText = kEchoSpec;
    opts.engine = "native";
    opts.ioMode = IoMode::Script;
    opts.scriptInputs = {10, 20, 30, 40, 50};
    opts.ioOut = &os;
    opts.traceStream = nullptr;
    Simulation sim(opts);
    sim.run(sim.defaultCycles());
    EXPECT_EQ(os.str(), "10\n20\n30\n40\n50\n");
}

} // namespace
} // namespace asim

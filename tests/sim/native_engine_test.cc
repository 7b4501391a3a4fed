/** @file
 * NativeEngine tests: the generated library runs in process on the
 * engine's own state — one build serves any number of runs, resets
 * and instances; a runtime fault raises the in-process engines'
 * SimError and reset() recovers; restore() is a plain state copy;
 * inputs come from the configured IoDevice; and instances sharing one
 * loaded library, sequentially interleaved or on concurrent threads,
 * never share data.
 *
 * Skipped without a host compiler.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/batch.hh"
#include "sim/checkpoint.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"
#include "support/serialize.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A machine that faults once its counter walks off a 10-cell
 *  memory (same shape as the batch suite's fault spec). */
const char *kFaultSpec = "# walks off the end of mem\n"
                         "count* next .\n"
                         "A next 4 count 1\n"
                         "M count 0 next 1 1\n"
                         "M mem count count 1 10\n"
                         ".\n";

const char *kEchoSpec = "# integer echo\n"
                        "= 4\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

class NativeEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
    }

    static std::unique_ptr<NativeEngine>
    counterEngine()
    {
        return std::make_unique<NativeEngine>(
            resolveText(counterSpec(4, 100)), EngineConfig{});
    }
};

TEST_F(NativeEngineTest, OneChildServesManyRunsAndResets)
{
    // One loaded library serves every run and reset of an engine.
    auto ep = counterEngine();
    NativeEngine &e = *ep;
    const NativeBuild *build = &e.build();
    e.run(3);
    e.run(4);
    EXPECT_EQ(e.cycle(), 7u);
    EXPECT_EQ(e.value("count"), 7);
    EXPECT_EQ(e.stats().cycles, 7u);
    e.reset();
    EXPECT_EQ(e.cycle(), 0u);
    EXPECT_EQ(e.value("count"), 0);
    e.run(2);
    EXPECT_EQ(e.value("count"), 2);
    EXPECT_EQ(&e.build(), build) << "reset() must not rebuild";
}

TEST_F(NativeEngineTest, RuntimeFaultThrowsAndResetRecovers)
{
    // The in-process fault contract: the engine stops inside the
    // faulting cycle, exactly where interp stops.
    NativeEngine e(resolveText(kFaultSpec), EngineConfig{});
    e.run(8); // safely inside the 10-cell memory
    EXPECT_EQ(e.cycle(), 8u);
    try {
        e.run(50);
        FAIL() << "must walk off the memory";
    } catch (const SimError &err) {
        EXPECT_STREQ(err.what(),
                     "memory mem address 10 outside 0..9 (cycle 10)");
    }
    EXPECT_EQ(e.cycle(), 10u) << "stays at the faulting cycle";
    EXPECT_EQ(e.value("count"), 11) << "count updated before mem";
    EXPECT_THROW(e.run(1), SimError) << "the fault is in the state";
    e.reset();
    e.run(8);
    EXPECT_EQ(e.cycle(), 8u);
    EXPECT_EQ(e.value("count"), 8);
}

TEST_F(NativeEngineTest, ScriptedInputRewindsOnReset)
{
    std::ostringstream out;
    ScriptIo scripted({10, 20, 30, 40, 50}, out);
    EngineConfig cfg;
    cfg.io = &scripted;
    NativeEngine e(resolveText(kEchoSpec), cfg);
    e.run(5);
    EXPECT_EQ(out.str(), "10\n20\n30\n40\n50\n");
    e.reset();
    out.str("");
    e.run(2);
    EXPECT_EQ(out.str(), "10\n20\n") << "reset rewinds the script";
}

/** An exception from the I/O device never unwinds through the
 *  library: run() rethrows it once the library has returned, with the
 *  cycle counter and state written back. */
TEST_F(NativeEngineTest, DeviceExceptionSurfacesAfterTheRun)
{
    struct FailingIo : VectorIo
    {
        bool failed = false;
        int32_t
        input(int32_t address) override
        {
            if (inputsConsumed() == 2 && !failed) {
                failed = true;
                throw std::runtime_error("device hiccup");
            }
            return VectorIo::input(address);
        }
    } io;
    for (int v : {1, 2, 3, 4, 5})
        io.pushInput(v);
    EngineConfig cfg;
    cfg.io = &io;
    NativeEngine e(resolveText(kEchoSpec), cfg);
    try {
        e.run(4);
        FAIL() << "the device's exception must surface";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "device hiccup");
    }
    EXPECT_EQ(e.cycle(), 4u) << "the run completed its cycles";
    EXPECT_EQ(e.stats().cycles, 4u);
    EXPECT_EQ(e.stats().mems[0].inputs, 4u);
    e.run(1); // the kept exception does not outlive its run
    EXPECT_EQ(e.cycle(), 5u);
    EXPECT_EQ(io.text(), "1\n2\n0\n3\n4\n");
}

/** restore() is a plain copy of the snapshot: no cycle runs, and the
 *  continuation matches the uninterrupted engine. */
TEST_F(NativeEngineTest, RestoreIsProtocolNativeNotReplay)
{
    auto ap = counterEngine();
    NativeEngine &a = *ap;
    a.run(1000);
    EngineSnapshot snap = a.snapshot();

    auto bp = counterEngine();
    NativeEngine &b = *bp;
    b.restore(snap);
    EXPECT_EQ(b.cycle(), 1000u);
    EXPECT_EQ(b.stats().cycles, 1000u) << "adopted, not replayed";
    EXPECT_EQ(b.value("count"), a.value("count"));

    a.run(7);
    b.run(7);
    EXPECT_EQ(b.value("count"), a.value("count"));
    EXPECT_TRUE(b.state() == a.state());
}

TEST_F(NativeEngineTest, RestorePositionsTheInputCursor)
{
    ResolvedSpec rs = resolveText(kEchoSpec);
    VectorIo ia;
    for (int v : {1, 2, 3, 4, 5})
        ia.pushInput(v);
    EngineConfig ca;
    ca.io = &ia;
    NativeEngine ea(rs, ca);
    ea.run(3);
    EngineSnapshot snap = ea.snapshot();
    EXPECT_EQ(snap.ioValues, 3u);

    // Same script: the continuation picks up at value 4.
    VectorIo ic;
    for (int v : {1, 2, 3, 4, 5})
        ic.pushInput(v);
    EngineConfig cc;
    cc.io = &ic;
    NativeEngine ec(rs, cc);
    ec.restore(snap);
    EXPECT_EQ(ec.cycle(), 3u);
    EXPECT_TRUE(ec.state() == snap.state);
    ec.run(2);
    EXPECT_EQ(ic.text(), "4\n5\n");

    // A different script: the engine adopts the state and the
    // *cursor*, and reads its own script from position 3.
    VectorIo ib;
    for (int v : {9, 8, 7, 6, 5})
        ib.pushInput(v);
    EngineConfig cb;
    cb.io = &ib;
    NativeEngine eb(rs, cb);
    eb.restore(snap);
    eb.run(2);
    EXPECT_EQ(ib.text(), "6\n5\n");
}

/** A version-2 checkpoint written while the native engine kept a
 *  byte cursor still decodes, and restores into native and vm alike:
 *  decoding reads the cursor and drops it, the value count positions
 *  the script. */
TEST_F(NativeEngineTest, ByteCursorCheckpointStillRestores)
{
    ResolvedSpec rs = resolveText(kEchoSpec);
    VectorIo src;
    for (int v : {1, 2, 3, 4, 5})
        src.pushInput(v);
    EngineConfig cfg;
    cfg.io = &src;
    auto vm = makeVm(rs, cfg);
    vm->run(3);
    const EngineSnapshot snap = vm->snapshot();
    // The v2 layout: the current one with version 2 and a byte cursor
    // after the value cursor ("1\n2\n3\n" consumed, as the serve
    // child wrote), re-sealed.
    const std::string current =
        encodeCheckpoint(snap, specIdentityHash(rs), "native");
    // magic, version, spec hash, "native" (u32 length + 6 bytes),
    // cycle, value cursor
    const size_t cursorAt = 8 + 4 + 8 + 4 + 6 + 8 + 8;
    ByteWriter w;
    w.bytes(kCheckpointMagic);
    w.u32(2);
    w.bytes(std::string_view(current).substr(12, cursorAt - 12));
    w.u64(6);
    w.bytes(std::string_view(current).substr(
        cursorAt, current.size() - 4 - cursorAt));
    w.u32(crc32(w.data()));
    CheckpointInfo info;
    EngineSnapshot back = decodeCheckpoint(w.data(), "v2", &info);
    EXPECT_EQ(info.version, 2u);
    EXPECT_EQ(back.ioValues, 3u);
    EXPECT_TRUE(back.state == snap.state);

    std::string texts[2];
    for (int i = 0; i < 2; ++i) {
        VectorIo io;
        for (int v : {1, 2, 3, 4, 5})
            io.pushInput(v);
        EngineConfig c;
        c.io = &io;
        std::unique_ptr<Engine> e;
        if (i == 0)
            e = std::make_unique<NativeEngine>(rs, c);
        else
            e = makeVm(rs, c);
        e->restore(back);
        e->run(2);
        EXPECT_EQ(e->cycle(), 5u);
        texts[i] = io.text();
    }
    EXPECT_EQ(texts[0], "4\n5\n");
    EXPECT_EQ(texts[0], texts[1]);
}

/** Two engines over one loaded library, stepped alternately, end
 *  exactly where each would alone: any mutable static left in the
 *  generated unit would leak one engine's cycle into the other's. */
TEST_F(NativeEngineTest, InstancesOverOneBuildShareNoState)
{
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(8, 300)));
    std::ostringstream traceA, traceB, traceRef;
    StreamTrace sinkA(traceA), sinkB(traceB), sinkRef(traceRef);
    EngineConfig cfg;
    cfg.trace = &sinkA;
    auto build = NativeEngine::buildFor(*rs, cfg.aluSemantics, true);
    NativeEngine a(rs, cfg, {"", build});
    cfg.trace = &sinkB;
    NativeEngine b(rs, cfg, {"", build});
    EXPECT_EQ(&a.build(), &b.build());
    b.run(5); // b starts ahead and runs two cycles per step of a
    for (int i = 0; i < 40; ++i) {
        a.step();
        b.run(2);
    }
    cfg.trace = &sinkRef;
    NativeEngine ref(rs, cfg, {"", build});
    ref.run(40);
    EXPECT_EQ(traceA.str(), traceRef.str());
    EXPECT_TRUE(a.state() == ref.state());
    ref.run(45);
    EXPECT_TRUE(b.state() == ref.state());
    EXPECT_EQ(b.cycle(), 85u);
    EXPECT_EQ(b.value("count"), 85);
}

/** A shared build only serves the spec it was generated from: the
 *  library indexes the engine's arrays by that spec's shape. */
TEST_F(NativeEngineTest, RefusesABuildOfAnotherSpec)
{
    ResolvedSpec small = resolveText(counterSpec(4, 10));
    ResolvedSpec wide = resolveText(kFaultSpec);
    auto build = NativeEngine::buildFor(small, AluSemantics::Thesis, false);
    EXPECT_NO_THROW(NativeEngine(small, EngineConfig{}, {"", build}));
    EXPECT_THROW(NativeEngine(wide, EngineConfig{}, {"", build}),
                 SimError);
}

/** The same isolation across threads: a 4-thread native batch over
 *  one shared build ends, instance by instance, byte-identical to
 *  sequential single runs of the same jobs. */
TEST_F(NativeEngineTest, ConcurrentInstancesMatchSequentialRuns)
{
    const std::string gcd = std::string(ASIM_SPECS_DIR) + "/gcd.asim";
    auto job = [&](uint64_t cycles) {
        BatchJob j;
        j.options.specFile = gcd;
        j.options.engine = "native";
        j.cycles = cycles;
        j.captureTrace = true;
        return j;
    };
    BatchOptions bopts;
    bopts.threads = 4;
    BatchRunner runner(bopts);
    const uint64_t budgets[] = {40, 7, 25, 33, 12, 40, 19, 3};
    for (uint64_t cycles : budgets)
        runner.addJob(job(cycles));
    BatchResult result = runner.run();
    ASSERT_EQ(result.instances.size(), std::size(budgets));

    for (size_t i = 0; i < std::size(budgets); ++i) {
        std::ostringstream trace;
        SimulationOptions o;
        o.specFile = gcd;
        o.engine = "native";
        o.traceStream = &trace;
        Simulation single(o);
        single.run(budgets[i]);
        const InstanceResult &r = result.instances[i];
        EXPECT_FALSE(r.faulted) << r.fault;
        EXPECT_EQ(r.cyclesRun, budgets[i]);
        EXPECT_EQ(r.traceText, trace.str()) << "instance " << i;
        EXPECT_TRUE(r.state == single.engine().state())
            << "instance " << i;
        EXPECT_EQ(encodeCheckpoint(single.snapshot(), 0, "x"),
                  encodeCheckpoint(
                      EngineSnapshot{r.state, r.cyclesRun, r.stats}, 0,
                      "x"))
            << "instance " << i;
    }
}

/** The regression guard for stepping: N step() calls must cost O(N),
 *  not the O(N²) of the old replay-from-zero adapter. The bound is 3x
 *  a single run(1000) plus an absolute floor absorbing call overhead
 *  on slow, loaded CI hosts. */
TEST_F(NativeEngineTest, SteppingIsIncrementalNotQuadratic)
{
    SimulationOptions opts;
    opts.specFile = std::string(ASIM_SPECS_DIR) + "/gcd.asim";
    opts.engine = "native";

    Simulation whole(opts);
    auto t0 = Clock::now();
    whole.run(1000);
    double runOnce = secondsSince(t0);

    Simulation stepped(opts);
    t0 = Clock::now();
    for (int i = 0; i < 1000; ++i)
        stepped.step();
    double stepAll = secondsSince(t0);

    EXPECT_EQ(stepped.cycle(), whole.cycle());
    EXPECT_TRUE(stepped.engine().state() == whole.engine().state());
    EXPECT_LT(stepAll, 3.0 * runOnce + 0.5)
        << "1000x step() took " << stepAll << "s vs run(1000) "
        << runOnce << "s — quadratic replay is back?";
}

} // namespace
} // namespace asim

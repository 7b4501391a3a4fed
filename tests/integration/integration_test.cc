/** @file
 * Whole-pipeline integration tests: specification text -> parse ->
 * resolve -> all three execution systems -> identical observable
 * behavior, on the thesis workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/fault.hh"
#include "lang/parser.hh"
#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "codegen/native.hh"
#include "machines/stack_machine.hh"
#include "machines/tiny_computer.hh"
#include "sim/engine.hh"

namespace asim {
namespace {

TEST(Integration, SieveOfEratosthenesFullRun)
{
    // The thesis' flagship demo: the stack machine runs the sieve and
    // the primes come out of the memory-mapped output port.
    ResolvedSpec rs = resolveText(
        stackMachineSpec(sieveProgram(kBenchSieveSize), 60000));
    VectorIo io;
    EngineConfig cfg;
    cfg.io = &io;
    auto e = makeVm(rs, cfg);
    e->run(60000);
    EXPECT_EQ(io.outputsAt(1), sieveReference(kBenchSieveSize));
    EXPECT_EQ(e->value("state"), kStackHaltState);
}

TEST(Integration, ThesisCycleBudgetProducesPartialPrimes)
{
    // Figure 5.1 runs exactly 5545 cycles; at that budget the machine
    // must still be mid-sieve (busy), having printed some primes.
    ResolvedSpec rs = resolveText(stackMachineSpec(
        sieveProgram(kBenchSieveSize), kThesisSieveCycles));
    VectorIo io;
    EngineConfig cfg;
    cfg.io = &io;
    auto e = makeVm(rs, cfg);
    e->run(kThesisSieveCycles + 1); // thesis inclusive loop
    auto primes = io.outputsAt(1);
    EXPECT_GE(primes.size(), 1u);
    EXPECT_NE(e->value("state"), kStackHaltState)
        << "machine should still be busy at the thesis budget";
    auto ref = sieveReference(kBenchSieveSize);
    for (size_t i = 0; i < primes.size(); ++i)
        EXPECT_EQ(primes[i], ref[i]);
}

TEST(Integration, TraceMatchesBetweenEnginesOnTracedStackMachine)
{
    ResolvedSpec rs = resolveText(
        stackMachineSpec(sieveProgram(5), 2000, /*traced=*/true));
    auto run = [&](bool vm) {
        std::ostringstream os;
        StreamTrace trace(os);
        VectorIo io;
        EngineConfig cfg;
        cfg.trace = &trace;
        cfg.io = &io;
        auto e = vm ? makeVm(rs, cfg) : makeInterpreter(rs, cfg);
        e->run(2000);
        return os.str();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Integration, FaultInjectionBreaksTheSieve)
{
    // Stuck-at-0 on the ALU result bus bit 1: the sieve must produce
    // wrong output (the fault is observable), demonstrating the
    // thesis' §2.3.2 fault-injection workflow end to end.
    Spec healthy = parseSpec(stackMachineSpec(sieveProgram(10), 30000));
    Spec faulty = spliceFault(healthy, parseFaultSite("alures:1:set0"));

    VectorIo io;
    EngineConfig cfg;
    cfg.io = &io;
    auto e = makeVm(resolve(faulty), cfg);
    e->run(30000);
    EXPECT_NE(io.outputsAt(1), sieveReference(10));
}

TEST(Integration, NativePipelineOnTheSieve)
{
    if (!hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler";
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(10), 20000));
    CodegenOptions opts;
    opts.emitTrace = false; // stdout carries only the primes
    NativeResult res = compileAndRun(rs, 20000, opts);
    // Expected stdout: one line per prime plus the count.
    std::string expect;
    for (int32_t v : sieveReference(10))
        expect += std::to_string(v) + "\n";
    EXPECT_EQ(res.stdoutText, expect);
}

TEST(Integration, TinyComputerInterpAndVmAgree)
{
    int result = 0;
    auto img = tinyMulProgram(11, 9, result);
    ResolvedSpec rs = resolveText(tinyComputerSpec(img, 4000));
    auto a = makeInterpreter(rs);
    auto b = makeVm(rs);
    a->run(4000);
    b->run(4000);
    EXPECT_TRUE(a->state() == b->state());
    EXPECT_EQ(a->memCell("memory", result), 99);
}

TEST(Integration, StatsOnSieveRun)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(10), 20000));
    auto e = makeVm(rs);
    e->run(20000);
    const SimStats &st = e->stats();
    EXPECT_EQ(st.cycles, 20000u);
    // The RAM and the program ROM dominate memory traffic.
    uint64_t ramTotal = 0, progReads = 0;
    for (const auto &m : st.mems) {
        if (m.name == "ram")
            ramTotal = m.total();
        if (m.name == "prog")
            progReads = m.reads;
    }
    EXPECT_GT(ramTotal, 1000u);
    EXPECT_EQ(progReads, 20000u); // the ROM reads every cycle
}

} // namespace
} // namespace asim

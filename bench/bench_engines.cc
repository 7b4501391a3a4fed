/**
 * @file
 * Engine throughput across the three example machines: cycles/second
 * for the interpreter (ASIM baseline) vs the bytecode VM (ASIM II
 * analog) vs the in-process native library (ASIM II proper), all
 * constructed by name through the Simulation facade. The Figure 5.1
 * interpreted-vs-compiled gap should be visible on every machine,
 * growing with specification size; BM_NativeStep pins the per-cycle
 * stepping rate, one library call per cycle (the quadratic-replay
 * regression guard, bench-visible form). Every leg runs on the
 * calling thread, so CPU time is wall time.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/tiny_computer.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace {

using namespace asim;

using SharedSpec = std::shared_ptr<const ResolvedSpec>;

const SharedSpec &
machine(int which)
{
    static const SharedSpec counter =
        std::make_shared<const ResolvedSpec>(
            resolveText(counterSpec(8, 1000)));
    static const SharedSpec tiny = [] {
        int r = 0;
        return std::make_shared<const ResolvedSpec>(resolveText(
            tinyComputerSpec(tinyModProgram(97, 13, r), 100000)));
    }();
    static const SharedSpec stack =
        std::make_shared<const ResolvedSpec>(resolveText(
            stackMachineSpec(sieveProgram(kBenchSieveSize), 100000)));
    switch (which) {
      case 0:
        return counter;
      case 1:
        return tiny;
      default:
        return stack;
    }
}

void
runEngine(benchmark::State &state, const char *engine)
{
    SimulationOptions opts;
    opts.resolved = machine(static_cast<int>(state.range(0)));
    opts.engine = engine;
    opts.config.collectStats = false;
    Simulation sim(opts);

    const uint64_t chunk = 1024;
    for (auto _ : state) {
        sim.run(chunk);
        if (sim.cycle() > (1u << 24))
            sim.reset();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * chunk));
    state.SetLabel(state.range(0) == 0   ? "counter"
                   : state.range(0) == 1 ? "tiny_computer"
                                         : "stack_machine");
}

void
BM_SymbolicInterpreter(benchmark::State &state)
{
    runEngine(state, "symbolic");
}

void
BM_Interpreter(benchmark::State &state)
{
    runEngine(state, "interp");
}

void
BM_Vm(benchmark::State &state)
{
    runEngine(state, "vm");
}

void
BM_Native(benchmark::State &state)
{
    if (!NativeEngine::available()) {
        state.SkipWithError("no host compiler");
        return;
    }
    runEngine(state, "native");
}

/** Interactive stepping: one library call per cycle. The rate is the
 *  bench-visible form of the guard against stepping that replays
 *  from cycle zero (quadratic in the cycle count). */
void
BM_NativeStep(benchmark::State &state)
{
    if (!NativeEngine::available()) {
        state.SkipWithError("no host compiler");
        return;
    }
    SimulationOptions opts;
    opts.resolved = machine(0);
    opts.engine = "native";
    opts.config.collectStats = false;
    Simulation sim(opts);
    for (auto _ : state) {
        sim.step();
        if (sim.cycle() > (1u << 20))
            sim.reset();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.SetLabel("counter, per-cycle step()");
}

BENCHMARK(BM_SymbolicInterpreter)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Interpreter)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Vm)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Native)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_NativeStep);

/** Checkpoint-path costs per engine (sim/checkpoint.hh): the
 *  advance-then-snapshot pattern a periodic checkpointer pays, and
 *  restore of a mid-run snapshot. Both are O(state) copies in every
 *  engine, native included. */
void
BM_Snapshot(benchmark::State &state, const char *engine)
{
    if (std::strcmp(engine, "native") == 0 &&
        !NativeEngine::available()) {
        state.SkipWithError("no host compiler");
        return;
    }
    SimulationOptions opts;
    opts.resolved = machine(1); // tiny_computer: non-trivial state
    opts.engine = engine;
    opts.config.collectStats = false;
    Simulation sim(opts);
    for (auto _ : state) {
        sim.step();
        EngineSnapshot snap = sim.snapshot();
        benchmark::DoNotOptimize(snap.cycle);
        if (sim.cycle() > (1u << 20))
            sim.reset();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.SetLabel("tiny_computer, step + snapshot()");
}

void
BM_Restore(benchmark::State &state, const char *engine)
{
    if (std::strcmp(engine, "native") == 0 &&
        !NativeEngine::available()) {
        state.SkipWithError("no host compiler");
        return;
    }
    SimulationOptions opts;
    opts.resolved = machine(1);
    opts.engine = engine;
    opts.config.collectStats = false;
    Simulation sim(opts);
    sim.run(1000);
    EngineSnapshot snap = sim.snapshot();
    for (auto _ : state)
        sim.restore(snap);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.SetLabel("tiny_computer, restore mid-run snapshot");
}

BENCHMARK_CAPTURE(BM_Snapshot, interp, "interp");
BENCHMARK_CAPTURE(BM_Snapshot, vm, "vm");
BENCHMARK_CAPTURE(BM_Snapshot, native, "native");
BENCHMARK_CAPTURE(BM_Restore, interp, "interp");
BENCHMARK_CAPTURE(BM_Restore, vm, "vm");
BENCHMARK_CAPTURE(BM_Restore, native, "native");

/** Tracing cost: the sieve machine with a trace sink swallowing
 *  events (isolates formatting from simulation). */
void
BM_VmTraced(benchmark::State &state)
{
    NullTrace trace;
    SimulationOptions opts;
    opts.resolved = std::make_shared<const ResolvedSpec>(resolveText(
        stackMachineSpec(sieveProgram(kBenchSieveSize), 100000,
                         true)));
    opts.engine = "vm";
    opts.config.trace = &trace;
    Simulation sim(opts);
    for (auto _ : state) {
        sim.run(1024);
        if (sim.cycle() > (1u << 24))
            sim.reset();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

BENCHMARK(BM_VmTraced);

} // namespace

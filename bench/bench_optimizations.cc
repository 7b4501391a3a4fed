/**
 * @file
 * Ablations of the thesis' §4.4 optimizations and the §5.4 "future
 * work" memory-temporary heuristic, measured on the bytecode VM over
 * the sieve stack machine: constant-function ALU inlining, constant-
 * operation memory specialization, constant-selector tables (the
 * microcode-ROM pattern), and unused-latch elision.
 */

#include <benchmark/benchmark.h>

#include "analysis/resolve.hh"
#include "machines/stack_machine.hh"
#include "sim/compiler.hh"
#include "sim/vm.hh"

namespace {

using namespace asim;

const ResolvedSpec &
sieve()
{
    static const ResolvedSpec rs = resolveText(
        stackMachineSpec(sieveProgram(kBenchSieveSize), 100000));
    return rs;
}

void
runWith(benchmark::State &state, const CompilerOptions &opts)
{
    NullIo io;
    EngineConfig cfg;
    cfg.io = &io;
    cfg.collectStats = false;
    Vm vm(sieve(), cfg, opts);
    for (auto _ : state) {
        vm.run(1024);
        if (vm.cycle() > (1u << 24))
            vm.reset();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
    state.SetLabel(std::to_string(vm.program().totalInstructions()) +
                   " instrs");
}

void
BM_AllOptimizations(benchmark::State &state)
{
    runWith(state, CompilerOptions{});
}

void
BM_NoConstAluInlining(benchmark::State &state)
{
    CompilerOptions o;
    o.inlineConstAlu = false;
    runWith(state, o);
}

void
BM_NoConstMemSpecialization(benchmark::State &state)
{
    CompilerOptions o;
    o.specializeConstMem = false;
    runWith(state, o);
}

void
BM_NoConstSelectorTables(benchmark::State &state)
{
    CompilerOptions o;
    o.constSelectorTables = false;
    runWith(state, o);
}

void
BM_NoOptimizations(benchmark::State &state)
{
    CompilerOptions o;
    o.inlineConstAlu = false;
    o.specializeConstMem = false;
    o.constSelectorTables = false;
    runWith(state, o);
}

BENCHMARK(BM_AllOptimizations);
BENCHMARK(BM_NoConstAluInlining);
BENCHMARK(BM_NoConstMemSpecialization);
BENCHMARK(BM_NoConstSelectorTables);
BENCHMARK(BM_NoOptimizations);

/** The thesis-quirk shift option should cost nothing measurable. */
void
BM_FixedShlSemantics(benchmark::State &state)
{
    NullIo io;
    EngineConfig cfg;
    cfg.io = &io;
    cfg.collectStats = false;
    cfg.aluSemantics = AluSemantics::Fixed;
    Vm vm(sieve(), cfg, {});
    for (auto _ : state) {
        vm.run(1024);
        if (vm.cycle() > (1u << 24))
            vm.reset();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

BENCHMARK(BM_FixedShlSemantics);

} // namespace

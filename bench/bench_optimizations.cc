/**
 * @file
 * The bytecode VM over the sieve stack machine with its one fixed
 * optimization pipeline (the thesis' §4.4 constant optimizations plus
 * the cycle-stream optimizer), as the reference for the cost of the
 * repaired shift-left semantics.
 */

#include <benchmark/benchmark.h>

#include "analysis/resolve.hh"
#include "machines/stack_machine.hh"
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
runWith(benchmark::State &state, AluSemantics semantics)
{
    NullIo io;
    EngineConfig cfg;
    cfg.io = &io;
    cfg.aluSemantics = semantics;
    Vm vm(sieve(), cfg);
    for (auto _ : state) {
        vm.run(1024);
        if (vm.cycle() > (1u << 24))
            vm.reset();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
    state.SetLabel(std::to_string(vm.program().cycle.size()) +
                   " instrs");
}

void
BM_AllOptimizations(benchmark::State &state)
{
    runWith(state, AluSemantics::Thesis);
}

/** The thesis-quirk shift option should cost nothing measurable. */
void
BM_FixedShlSemantics(benchmark::State &state)
{
    runWith(state, AluSemantics::Fixed);
}

BENCHMARK(BM_AllOptimizations);
BENCHMARK(BM_FixedShlSemantics);

} // namespace

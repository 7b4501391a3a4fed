/**
 * @file
 * Front-end throughput: the ASIM "Generate tables" phase (Figure 5.1
 * row 1), parse and resolve across spec sizes. Both benches pass a
 * Diagnostics, as Simulation does, so a per-name scan in the
 * declaration cross-check or module expansion shows up as a
 * super-linear curve.
 */

#include <benchmark/benchmark.h>

#include "analysis/resolve.hh"
#include "machines/synthetic.hh"

namespace {

using namespace asim;

std::string
synthText(int scale)
{
    SyntheticOptions opts;
    opts.seed = 777 + scale;
    opts.alus = scale * 6;
    opts.selectors = scale * 2;
    opts.memories = scale;
    return generateSyntheticText(opts);
}

/** The load every Simulation runs: parse and resolve with a
 *  Diagnostics, so the declaration cross-check (thesis `checkdcl`)
 *  is timed too. Arg(1024) is ~9k components. */
void
BM_ParseAndResolveChecked(benchmark::State &state)
{
    std::string text = synthText(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Diagnostics diag;
        benchmark::DoNotOptimize(resolveText(text, &diag));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}

/** Module expansion (thesis §5.4 extension): N uses of a
 *  3-component module, chained output to input, parsed and resolved
 *  with a Diagnostics. */
void
BM_ModuleExpansion(benchmark::State &state)
{
    std::string text = "# module chain\n"
                       "o0 .\n"
                       "A o0 4 1 1\n"
                       "D cell in out .\n"
                       "A p 4 in 1\n"
                       "A q 2 p in\n"
                       "A out 4 q 1\n"
                       "E\n";
    for (int64_t k = 1; k <= state.range(0); ++k) {
        text += "U u" + std::to_string(k) + " cell o" +
                std::to_string(k - 1) + " o" + std::to_string(k) + "\n";
    }
    text += ".\n";
    for (auto _ : state) {
        Diagnostics diag;
        benchmark::DoNotOptimize(resolveText(text, &diag));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_ParseAndResolveChecked)->Arg(1)->Arg(32)->Arg(256)->Arg(1024);
BENCHMARK(BM_ModuleExpansion)->Arg(8)->Arg(64)->Arg(512)->Arg(1024);

} // namespace

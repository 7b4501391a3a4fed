/**
 * @file
 * Engine scaling with specification size: synthetic machines from a
 * handful of components up to hundreds. Per-cycle cost should grow
 * linearly for both engines with the VM keeping a constant-factor
 * advantage (the Figure 5.1 gap is size-independent).
 *
 * The partitioned legs run ONE large layered design (the scaling
 * corpus presets) under the bulk-synchronous partitioned interpreter
 * at 1/2/4/8 lanes. On a multi-core host, cycles/s should rise with
 * the lane count until the cores run out; on a single-core host the
 * ladder is flat minus barrier overhead — compare against lanes:1 to
 * read the speedup either way (PERFORMANCE.md "Intra-spec
 * parallelism").
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "analysis/resolve.hh"
#include "machines/synthetic.hh"
#include "sim/simulation.hh"

namespace {

using namespace asim;

std::shared_ptr<const ResolvedSpec>
synth(int scale)
{
    SyntheticOptions opts;
    opts.seed = 12345 + scale;
    opts.alus = scale * 6;
    opts.selectors = scale * 2;
    opts.memories = scale;
    opts.withIo = false;
    opts.tracedPercent = 0;
    return std::make_shared<const ResolvedSpec>(
        resolve(generateSynthetic(opts)));
}

void
runScaled(benchmark::State &state, const char *engine)
{
    SimulationOptions opts;
    opts.resolved = synth(static_cast<int>(state.range(0)));
    opts.engine = engine;
    opts.config.collectStats = false;
    Simulation sim(opts);
    for (auto _ : state)
        sim.run(256);
    state.SetItemsProcessed(state.iterations() * 256);
    const ResolvedSpec &rs = sim.resolved();
    state.SetLabel(std::to_string(rs.comb.size() + rs.mems.size()) +
                   " components");
}

void
BM_InterpreterScaling(benchmark::State &state)
{
    runScaled(state, "interp");
}

void
BM_VmScaling(benchmark::State &state)
{
    runScaled(state, "vm");
}

BENCHMARK(BM_InterpreterScaling)->Arg(1)->Arg(4)->Arg(16)->Arg(48);
BENCHMARK(BM_VmScaling)->Arg(1)->Arg(4)->Arg(16)->Arg(48);

/** Scaling-corpus specs are expensive to generate and resolve;
 *  benchmarks of several lane counts share one resolve per size. */
const std::shared_ptr<const ResolvedSpec> &
corpus(int comps)
{
    static std::map<int, std::shared_ptr<const ResolvedSpec>> cache;
    auto it = cache.find(comps);
    if (it == cache.end()) {
        SyntheticOptions opts =
            syntheticPreset(std::to_string(comps));
        it = cache
                 .emplace(comps,
                          std::make_shared<const ResolvedSpec>(
                              resolve(generateSynthetic(opts))))
                 .first;
    }
    return it->second;
}

void
BM_PartitionedScaling(benchmark::State &state)
{
    const int comps = static_cast<int>(state.range(0));
    const unsigned lanes = static_cast<unsigned>(state.range(1));
    // Keep one iteration's work roughly constant across sizes.
    const uint64_t cycles = comps >= 100000 ? 8 : 64;

    SimulationOptions opts;
    opts.resolved = corpus(comps);
    opts.engine = "interp";
    opts.partitions = lanes;
    opts.partitionMinComponents = 1; // bench the machinery, always
    opts.config.collectStats = false;
    Simulation sim(opts);
    for (auto _ : state)
        sim.run(cycles);
    state.SetItemsProcessed(state.iterations() * cycles);
    state.SetLabel(std::to_string(comps) + " comb, " +
                   std::to_string(lanes) + " lanes");
}

// Wall-clock, not CPU time: the work happens on pool threads, and
// the speedup claim is about elapsed time per cycle.
BENCHMARK(BM_PartitionedScaling)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

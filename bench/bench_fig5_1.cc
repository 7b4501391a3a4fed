/**
 * @file
 * Figure 5.1 reproduction: "Execution time comparison of ASIM and
 * ASIM II" on the stack-machine sieve, 5545 cycles.
 *
 * Paper rows (VAX 11/780, seconds):
 *
 *     ASIM      Generate tables    10.8
 *               Simulation time   310.6
 *     ASIM II   Generate code      34.2
 *               Pascal Compile     43.2
 *               Simulation time    15.0
 *     Traditional Generate Prototype 100000
 *               Run Prototype       0.01
 *
 * Our mapping: ASIM = the table-walking interpreter ("generate
 * tables" = parse+resolve); ASIM II = C++ code generation + host g++
 * + native run; plus the bytecode VM as a modern middle point. All
 * rows are driven through the Simulation facade — the three systems
 * differ only by registry name. The absolute numbers are ~10^5
 * smaller on 2020s hardware; the claims to check are the *ratios*:
 * compiled simulation roughly an order of magnitude faster than
 * interpreted (thesis: ~20x), and preparation dominating the
 * compiled pipeline (thesis: 2.5x end-to-end win). Generate code and
 * host compile are the medians of 5 fresh library builds (the host
 * compile's range is printed too), and the crossover is computed
 * from those medians.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "codegen/native.hh"
#include "machines/stack_machine.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"

namespace {

using Clock = std::chrono::steady_clock;
using asim::kThesisSieveCycles;

double
now()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** Best-of-5 wall time of a callable (as the thesis took). */
template <typename F>
double
timeIt(F &&f, int reps = 5)
{
    double best = 1e99;
    for (int i = 0; i < reps; ++i) {
        double t0 = now();
        f();
        best = std::min(best, now() - t0);
    }
    return best;
}

} // namespace

int
main()
{
    using namespace asim;

    const int64_t iterations = kThesisSieveCycles + 1; // inclusive loop
    const std::string specText =
        stackMachineSpec(sieveProgram(kBenchSieveSize),
                         kThesisSieveCycles);

    std::printf("Figure 5.1 — Execution time comparison "
                "(sieve stack machine, %lld cycles)\n",
                static_cast<long long>(kThesisSieveCycles));
    std::printf("  spec: %zu bytes, sieve size %d\n\n",
                specText.size(), kBenchSieveSize);

    // ---- ASIM row: generate tables + symbolic interpretation --------
    std::shared_ptr<const ResolvedSpec> rs;
    double genTables = timeIt([&] {
        rs = std::make_shared<const ResolvedSpec>(
            resolveText(specText));
    });

    SimulationOptions base;
    base.resolved = rs;

    auto simTime = [&](const char *engine) {
        SimulationOptions o = base;
        o.engine = engine;
        return timeIt([&] {
            Simulation sim(o);
            sim.run(iterations);
        });
    };

    double interpSim = simTime("symbolic");

    // Modern slot-resolved interpreter (intermediate point).
    double resolvedSim = simTime("interp");

    // ---- Modern middle point: bytecode VM ---------------------------
    double vmCompile = timeIt([&] {
        SimulationOptions o = base;
        o.engine = "vm";
        Simulation sim(o);
    });
    double vmSim = simTime("vm");

    // ---- ASIM II row: generate C++ + host compile + native run ------
    double genCode = 0, hostCompile = 0, nativeSim = 0;
    bool haveNative = NativeEngine::available();
    std::unique_ptr<Simulation> nativeSimulation;
    // Best-of-5 wall time of an in-process run of `cycles` from
    // reset.
    auto nativeRun = [&](int64_t cycles) {
        return timeIt([&] {
            nativeSimulation->reset();
            nativeSimulation->run(static_cast<uint64_t>(cycles));
        });
    };
    // Host compile is the noisiest phase: the median of fresh builds
    // (each generates, compiles and loads into its own temp dir, as
    // the engine does on a cache miss), with their range.
    constexpr int kBuilds = 5;
    std::vector<double> compiles;
    if (haveNative) {
        SimulationOptions o = base;
        o.engine = "native";
        nativeSimulation = std::make_unique<Simulation>(o);
        std::vector<double> gens;
        CodegenOptions cg; // the untraced engine's library form
        cg.emitTrace = false;
        for (int i = 0; i < kBuilds; ++i) {
            auto build = compileSpecShared(*rs, cg);
            gens.push_back(build->generateSeconds);
            compiles.push_back(build->compileSeconds);
        }
        std::sort(gens.begin(), gens.end());
        std::sort(compiles.begin(), compiles.end());
        genCode = gens[kBuilds / 2];
        hostCompile = compiles[kBuilds / 2];
        nativeSim = nativeRun(iterations);
    }

    std::printf("%-14s %-22s %12s %14s\n", "system", "phase",
                "paper (s)", "measured (s)");
    auto row = [](const char *sys, const char *phase, double paper,
                  double measured) {
        std::printf("%-14s %-22s %12.2f %14.6f\n", sys, phase, paper,
                    measured);
    };
    row("ASIM", "Generate tables", 10.8, genTables);
    row("ASIM", "Simulation time", 310.6, interpSim);
    if (haveNative) {
        row("ASIM II", "Generate code", 34.2, genCode);
        row("ASIM II", "Host compile", 43.2, hostCompile);
        std::printf("%-14s   (median of %d fresh builds, range "
                    "%.6f-%.6f)\n",
                    "", kBuilds, compiles.front(), compiles.back());
        row("ASIM II", "Simulation time", 15.0, nativeSim);
    } else {
        std::printf("%-14s %-22s %12s %14s\n", "ASIM II", "(no host "
                    "compiler)", "-", "-");
    }
    std::printf("%-14s %-22s %12s %14.6f\n", "(resolved)",
                "Simulation time", "-", resolvedSim);
    std::printf("%-14s %-22s %12s %14.6f\n", "(VM)",
                "Compile bytecode", "-", vmCompile);
    std::printf("%-14s %-22s %12s %14.6f\n", "(VM)",
                "Simulation time", "-", vmSim);
    std::printf("%-14s %-22s %12.2f %14s\n", "Traditional",
                "Generate Prototype", 100000.0, "(not built)");
    std::printf("%-14s %-22s %12.2f %14s\n", "Traditional",
                "Run Prototype", 0.01, "-");

    std::printf("\nratios (paper -> measured):\n");
    std::printf("  interpreted / compiled simulation: 20.7x -> "
                "%.1fx%s\n",
                haveNative ? interpSim / nativeSim : 0.0,
                haveNative ? "" : " (n/a)");
    std::printf("  interpreted / VM simulation:          -> %.1fx\n",
                interpSim / vmSim);
    std::printf("  interpreted / resolved-interpreter:   -> %.1fx\n",
                interpSim / resolvedSim);
    if (haveNative) {
        double asim = genTables + interpSim;
        double asim2 = genCode + hostCompile + nativeSim;
        std::printf("  end-to-end ASIM / ASIM II: 2.5x -> %.2fx\n",
                    asim / asim2);
        std::printf("  (compiled pipeline preparation share: paper "
                    "84%%, measured %.0f%%)\n",
                    100.0 * (genCode + hostCompile) / asim2);

        // The paper's 2.5x end-to-end win presumes a simulation long
        // enough to amortize compilation. On modern hardware the
        // same crossover exists at a larger cycle count; find it.
        double perCycleInterp = interpSim / double(iterations);
        double perCycleNative = nativeSim / double(iterations);
        double prep = genCode + hostCompile - genTables;
        double breakEven = prep / (perCycleInterp - perCycleNative);
        std::printf("\ncrossover: ASIM II wins end-to-end beyond "
                    "%.0f cycles (thesis ran %lld,\non hardware "
                    "~10^5 slower; at VAX speeds the crossover sat "
                    "well below 5545).\n",
                    breakEven,
                    static_cast<long long>(kThesisSieveCycles));

        // Demonstrate the crossover with a longer run (the compiled
        // binary is reused — the pipeline's point).
        const int64_t longCycles = 100 * kThesisSieveCycles;
        double longInterp = perCycleInterp * double(longCycles + 1);
        const double longNative = nativeRun(longCycles + 1);
        double longAsim2 = genCode + hostCompile + longNative;
        std::printf("\nscaled run (%lld cycles):\n",
                    static_cast<long long>(longCycles));
        std::printf("  ASIM    end-to-end: %10.3f s "
                    "(tables %.4f + sim %.3f)\n",
                    genTables + longInterp, genTables, longInterp);
        std::printf("  ASIM II end-to-end: %10.3f s "
                    "(gen %.4f + compile %.3f + sim %.4f)\n",
                    longAsim2, genCode, hostCompile, longNative);
        std::printf("  end-to-end ratio: %.1fx (paper: 2.5x)\n",
                    (genTables + longInterp) / longAsim2);
    }
    std::printf("\nShape check: compiled simulation should beat the "
                "interpreter by ~an order of\nmagnitude while paying "
                "a preparation cost; see docs/PERFORMANCE.md.\n");
    return 0;
}

/**
 * @file
 * Quickstart: describe a small piece of hardware in the ASIM II
 * language, simulate it through the Simulation facade on two of its
 * engines, inspect statistics, and generate the Pascal
 * the thesis' compiler would have produced.
 *
 * The machine is the thesis' own "simple counter" example (§3.2) —
 * one ALU and one single-cell memory.
 */

#include <iostream>

#include "codegen/codegen.hh"
#include "sim/simulation.hh"

int
main()
{
    using namespace asim;

    // A 4-bit counter, traced, for 20 cycles.
    const char *spec = "# 4-bit counter quickstart\n"
                       "= 20\n"
                       "count* next* .\n"
                       "A next 4 count.0.3 1\n"
                       "M count 0 next 1 1\n"
                       ".\n";

    std::cout << "--- specification ---------------------------\n"
              << spec << "\n";

    // The paper's execution systems, interchangeable by name.
    std::cout << "--- registered engines ----------------------\n";
    for (const EngineInfo &e : kEngines)
        std::cout << e.name << ": " << e.description << "\n";

    // One options struct owns the whole parse -> resolve -> engine
    // pipeline (any spec problems throw SpecError here).
    SimulationOptions opts;
    opts.specText = spec;
    opts.engine = "vm";
    opts.traceStream = &std::cout;

    std::cout << "--- simulation (vm engine) ------------------\n";
    Simulation vm(opts);
    for (const auto &w : vm.diagnostics().warnings())
        std::cout << w << "\n";
    vm.run(vm.defaultCycles());

    std::cout << "--- statistics -------------------------------\n"
              << vm.stats().summary();

    // The interpreter (ASIM baseline) gives identical results.
    opts.engine = "interp";
    opts.traceStream = nullptr;
    Simulation interp(opts);
    interp.run(interp.defaultCycles());
    std::cout << "interpreter count = " << interp.value("count")
              << ", vm count = " << vm.value("count") << "\n";

    // Run control beyond run(n): watchpoints and snapshots.
    Simulation watched(opts);
    uint64_t steps = watched.runUntilValue("count", 9, 100);
    std::cout << "count reached 9 after " << steps << " cycles\n";
    EngineSnapshot snap = watched.snapshot();
    watched.run(5);
    watched.restore(snap);
    std::cout << "restored to cycle " << watched.cycle()
              << ", count = " << watched.value("count") << "\n";

    // And this is what the 1986 compiler emitted: Pascal.
    std::cout << "--- generated Pascal (ASIM II output) --------\n"
              << generatePascal(watched.resolved());
    return 0;
}

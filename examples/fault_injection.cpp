/**
 * @file
 * Fault injection (thesis §2.3.2): "inserting a fault in the
 * specification to cause errors (by design) in the simulation run."
 *
 * We take the healthy sieve-running stack machine, inject stuck-at
 * faults on individual bits of the ALU result bus, and report which
 * faults are catastrophic (wrong primes), which are fatal (the
 * machine runs off its microcode), and which are silent at this
 * workload — exactly the kind of design-robustness sweep the thesis
 * proposes CHDL simulators for.
 */

#include <iostream>

#include "analysis/fault.hh"
#include "lang/parser.hh"
#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/stack_machine.hh"
#include "sim/engine.hh"

int
main()
{
    using namespace asim;

    const int size = 10;
    const auto expected = sieveReference(size);
    Spec healthy = parseSpec(stackMachineSpec(sieveProgram(size),
                                              50000));
    // Stuck-at faults in the fault grammar (component:bit:mode); each
    // splices a copy of the healthy specification.

    std::cout << "healthy machine: ";
    {
        VectorIo io;
        EngineConfig cfg;
        cfg.io = &io;
        auto e = makeVm(resolve(healthy), cfg);
        e->run(50000);
        std::cout << io.outputsAt(1).size() << " outputs, "
                  << (io.outputsAt(1) == expected ? "correct"
                                                  : "WRONG")
                  << "\n\n";
    }

    std::cout << "stuck-at-0 sweep over ALU result bus bits:\n";
    for (int bit = 0; bit < 12; ++bit) {
        Spec faulty = spliceFault(
            healthy,
            parseFaultSite("alures:" + std::to_string(bit) + ":set0"));
        VectorIo io;
        EngineConfig cfg;
        cfg.io = &io;
        std::cout << "  alures bit " << bit << " stuck at 0: ";
        try {
            auto e = makeVm(resolve(faulty), cfg);
            e->run(50000);
            auto out = io.outputsAt(1);
            if (out == expected)
                std::cout << "SILENT (output unchanged)\n";
            else if (out.empty())
                std::cout << "DEAD (no output)\n";
            else
                std::cout << "CORRUPT (" << out.size()
                          << " outputs, first "
                          << (out[0] == expected[0] ? "ok" : "wrong")
                          << ")\n";
        } catch (const SimError &e) {
            std::cout << "FATAL: " << e.what() << "\n";
        }
    }

    std::cout << "\nstuck-at-1 on the branch condition path "
                 "(iszero output):\n  ";
    try {
        Spec faulty = spliceFault(healthy, parseFaultSite("iszero:0:set1"));
        VectorIo io;
        EngineConfig cfg;
        cfg.io = &io;
        auto e = makeVm(resolve(faulty), cfg);
        e->run(50000);
        std::cout << "every BZ taken: " << io.outputsAt(1).size()
                  << " outputs (expected "
                  << expected.size() << ")\n";
    } catch (const SimError &e) {
        std::cout << "FATAL: " << e.what() << "\n";
    }
    return 0;
}

/**
 * @file
 * The thesis' flagship workload (Appendix D): a microcoded stack
 * machine running the Sieve of Eratosthenes, with the primes flowing
 * out of the memory-mapped output port.
 *
 * Usage: sieve_stack_machine [size] [--trace]
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "analysis/resolve.hh"
#include "machines/stack_machine.hh"
#include "sim/engine.hh"

int
main(int argc, char **argv)
{
    using namespace asim;

    int size = 20;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            traced = true;
        else
            size = std::atoi(argv[i]);
    }

    std::cout << "Assembling sieve(" << size
              << ") for the Itty Bitty Stack Machine...\n";
    auto program = sieveProgram(size);
    std::cout << "program: " << program.size() << " words\n";

    ResolvedSpec rs =
        resolveText(stackMachineSpec(program, 100000, traced));
    std::cout << "specification: " << rs.comb.size() + rs.mems.size()
              << " components (" << rs.comb.size()
              << " combinational, " << rs.mems.size()
              << " memories)\n\n";

    StreamTrace trace(std::cout);
    StreamIo io(std::cin, std::cout);
    EngineConfig cfg;
    cfg.io = &io;
    if (traced)
        cfg.trace = &trace;

    auto engine = makeVm(rs, cfg);
    std::cout << "primes (each line is one memory-mapped output; the "
                 "last line is the count):\n";
    uint64_t cycles = 0;
    while (engine->value("state") != kStackHaltState &&
           cycles < 1000000) {
        engine->run(64);
        cycles += 64;
    }
    std::cout << "\nhalted after ~" << engine->cycle() << " cycles\n";
    std::cout << engine->stats().summary();
    return 0;
}

/**
 * @file
 * Reproduces the thesis' code-generation figures: Figure 3.1 (bit
 * concatenation), Figure 4.1 (ALU codegen, generic vs constant-
 * function optimized), Figure 4.2 (selector codegen), and Figure 4.3
 * (memory codegen with tracing) — printing the specification next to
 * the Pascal ASIM II generates for it, plus the modern C++ output.
 */

#include <iostream>

#include "analysis/resolve.hh"
#include "codegen/codegen.hh"
#include "sim/engine.hh"

namespace {

void
banner(const char *title)
{
    std::cout << "\n==== " << title << " "
              << std::string(60 - std::string(title).size(), '=')
              << "\n";
}

} // namespace

int
main()
{
    using namespace asim;

    banner("Figure 3.1: bit concatenation");
    {
        // mem.3.4,#01,count.1 — evaluated against live values.
        ResolvedSpec rs = resolveText("# fig 3.1\n"
                                      "r mem count .\n"
                                      "A r 1 0 mem.3.4,#01,count.1\n"
                                      "M mem 0 0 0 -16 0 0 0 0 0 0 0 0 "
                                      "0 0 0 0 0 0 0 0\n"
                                      "M count 0 0 0 -1 0\n"
                                      ".\n");
        auto e = makeVm(rs);
        // mem latch: bits 3..4 = 0b11 -> set cells so a read shows it.
        e->state().latches()[0] = 0b11000; // mem output latch
        e->state().latches()[1] = 0b10;    // count bit 1 set
        e->step();
        std::cout << "mem.3.4,#01,count.1 with mem=11000b, count=10b"
                  << " -> r = " << e->value("r") << " (binary 11011)\n";
    }

    banner("Figure 4.1: ALU specification and generated code");
    {
        ResolvedSpec rs = resolveText("# fig 4.1\n"
                                      "alu add compute left .\n"
                                      "A alu compute left 3048\n"
                                      "A add 4 left 3048\n"
                                      "M compute 0 0 0 16\n"
                                      "M left 0 0 0 16\n"
                                      ".\n");
        std::cout << "Specification:\n"
                  << "  A alu compute left 3048\n"
                  << "  A add 4 left 3048\n\n"
                  << "Generated Pascal (the figure's two lines):\n";
        std::string code = generatePascal(rs);
        for (const char *needle :
             {"ljbalu := dologic", "ljbadd := "}) {
            size_t at = code.find(needle);
            size_t end = code.find('\n', at);
            std::cout << "  " << code.substr(at, end - at) << "\n";
        }
    }

    banner("Figure 4.2: selector specification and generated code");
    {
        ResolvedSpec rs = resolveText(
            "# fig 4.2\n"
            "selector index value0 value1 value2 value3 .\n"
            "S selector index.0.1 value0 value1 value2 value3\n"
            "M index 0 0 0 4\nM value0 0 0 0 4\nM value1 0 0 0 4\n"
            "M value2 0 0 0 4\nM value3 0 0 0 4\n"
            ".\n");
        std::string code = generatePascal(rs);
        size_t at = code.find("case land(tempindex");
        size_t end = code.find("end;", at);
        std::cout << code.substr(at, end - at + 4) << "\n";
    }

    banner("Figure 4.3: memory specification and generated code");
    {
        ResolvedSpec rs = resolveText(
            "# fig 4.3\n"
            "memory address data operation .\n"
            "A address 2 0 0\nA data 2 0 0\nA operation 2 0 0\n"
            "M memory address data operation.0.3 -4 12 34 56 78\n"
            ".\n");
        std::string code = generatePascal(rs);
        size_t at = code.find("case land(opnmemory, 3) of");
        size_t end = code.find("writeln('Read from memory", at);
        end = code.find('\n', end);
        std::cout << code.substr(at, end - at) << "\n";
    }

    banner("The same memory, as modern C++");
    {
        ResolvedSpec rs = resolveText(
            "# fig 4.3 cpp\n"
            "memory address data operation .\n"
            "A address 2 0 0\nA data 2 0 0\nA operation 2 0 0\n"
            "M memory address data operation.0.3 -4 12 34 56 78\n"
            ".\n");
        std::string code = generateCpp(rs);
        size_t at = code.find("switch (land(opnmemory, 3)) {");
        size_t end = code.find("}", code.find("case 3:", at));
        std::cout << code.substr(at, end - at + 1) << "\n";
    }
    return 0;
}

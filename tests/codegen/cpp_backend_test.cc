/** @file Structural tests for the C++ backend output. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "codegen/codegen.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "support/text.hh"

namespace asim {
namespace {

TEST(CppBackend, CounterShape)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "static int32_t ljbnext = 0;"));
    EXPECT_TRUE(contains(code, "static int32_t ljbcount[1];"));
    EXPECT_TRUE(contains(code, "land(int32_t a, int32_t b)"));
    EXPECT_TRUE(contains(code, "long long cycles = 20;"));
    EXPECT_TRUE(
        contains(code, "ljbnext = land(tempcount, 15) + 1;"));
    EXPECT_TRUE(contains(code, "SIM_NS"));
}

TEST(CppBackend, TraceLineMatchesEngineFormat)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_TRUE(
        contains(code, "std::printf(\"Cycle %3lld\", cyclecount);"));
    EXPECT_TRUE(contains(
        code, "std::printf(\" count= %d\", (int)tempcount);"));
}

TEST(CppBackend, NoTraceOption)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions opts;
    opts.emitTrace = false;
    std::string code = generateCpp(rs, opts);
    EXPECT_FALSE(contains(code, "Cycle %3lld"));
}

TEST(CppBackend, SelectorSwitchWithBoundsDefault)
{
    ResolvedSpec rs = resolveText("# sel\n"
                                  "s m .\n"
                                  "S s m 1 2\n"
                                  "M m 0 0 0 4\n"
                                  ".\n");
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "switch (tempm) {"));
    EXPECT_TRUE(contains(code, "case 0: ljbs = 1; break;"));
    EXPECT_TRUE(contains(code, "selfail(\"s\""));
}

TEST(CppBackend, MemoryBoundsChecks)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "memfail(\"count\""));
}

TEST(CppBackend, DynamicMemoryOperation)
{
    ResolvedSpec rs = resolveText("# dyn\n"
                                  "m op .\n"
                                  "A op 2 0 0\n"
                                  "M m 0 op op.0.3 4\n"
                                  ".\n");
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "switch (land(opnm, 3)) {"));
    EXPECT_TRUE(contains(code, "sinput(adrm)"));
    EXPECT_TRUE(contains(code, "soutput(adrm, tempm);"));
    EXPECT_TRUE(contains(code, "if (land(opnm, 5) == 5)"));
    EXPECT_TRUE(contains(code, "if (land(opnm, 9) == 8)"));
}

TEST(CppBackend, FixedShiftSemanticsOption)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions thesis;
    CodegenOptions fixed;
    fixed.aluSemantics = AluSemantics::Fixed;
    std::string a = generateCpp(rs, thesis);
    std::string b = generateCpp(rs, fixed);
    EXPECT_NE(a, b);
    EXPECT_TRUE(contains(b, "value = land(left, mask);"));
}

TEST(CppBackend, StackMachineGeneratesLargeSwitchTables)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 1000));
    std::string code = generateCpp(rs);
    // The 144-state microcode ROM becomes one big switch.
    EXPECT_GE(countOccurrences(code, "case "), 144);
    EXPECT_TRUE(contains(code, "static int32_t ljbram[256];"));
}

TEST(CppBackend, ServeLoopShape)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions opts;
    opts.emitServeLoop = true;
    opts.emitStateDump = true;
    std::string code = generateCpp(rs, opts);
    // The command dispatcher and its framing.
    EXPECT_TRUE(contains(code, "--serve"));
    for (const char *cmd :
         {"\"RUN \"", "\"INPUT \"", "\"RESET\"", "\"STATE\"",
          "\"SNAPSHOT\"", "\"RESTORE \"", "\"STATS\"", "\"QUIT\""})
        EXPECT_TRUE(contains(code, cmd)) << cmd;
    EXPECT_TRUE(contains(code, "respond(\"OK\""));
    EXPECT_TRUE(contains(code, "resetstate();"));
    EXPECT_TRUE(contains(code, "dumpstate();"));
    // The checkpoint pair: SNAPSHOT extends the dump with the input
    // cursor; RESTORE parses the same line formats back with every
    // index bounds-checked.
    EXPECT_TRUE(contains(code, "STATE_I"));
    EXPECT_TRUE(contains(code, "restorestate(blob, &newcyc)"));
    EXPECT_TRUE(contains(code, "\"STATE_CYC \""));
    EXPECT_TRUE(contains(code, "bad restore payload"));
    // Simulation output is buffered per command in serve builds...
    EXPECT_TRUE(
        contains(code, "xprintf(\"Cycle %3lld\", cyclecount);"));
    // ...while the one-shot entry point survives unchanged.
    EXPECT_TRUE(contains(code, "cycles = std::atoll(argv[1]);"));
}

TEST(CppBackend, OneShotBuildsCarryNoServePlumbing)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_FALSE(contains(code, "--serve"));
    EXPECT_FALSE(contains(code, "xprintf"));
    EXPECT_FALSE(contains(code, "servemode"));
    EXPECT_FALSE(contains(code, "restorestate"));
}

TEST(CppBackend, ServeStateDumpRidesTheResponseBuffer)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions opts;
    opts.emitServeLoop = true;
    opts.emitStateDump = true;
    std::string code = generateCpp(rs, opts);
    EXPECT_TRUE(contains(code, "dpf(\"STATE_V "));
    EXPECT_TRUE(contains(code, "dpf(\"STATE_END\\n\")"));
    // One-shot state dumps still print to stderr.
    CodegenOptions oneShot;
    oneShot.emitStateDump = true;
    std::string plain = generateCpp(rs, oneShot);
    EXPECT_TRUE(
        contains(plain, "std::fprintf(stderr, \"STATE_V "));
}

/** The library form's compile-time budget: the C header <stdint.h>
 *  and nothing else, no entry point of a program, no way out of the
 *  host process, and no state of its own. */
TEST(CppBackend, LibraryUnitIncludesOnlyStdint)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 1000, true));
    for (bool trace : {false, true}) {
        CodegenOptions opts;
        opts.emitTrace = trace;
        std::string code = generateCppLibrary(rs, opts);
        EXPECT_EQ(countOccurrences(code, "#include"), 1);
        EXPECT_TRUE(contains(code, "#include <stdint.h>\n"));
        EXPECT_FALSE(contains(code, "std::"));
        EXPECT_FALSE(contains(code, "main("));
        EXPECT_FALSE(contains(code, "exit("));
        EXPECT_FALSE(contains(code, "printf"));
        EXPECT_FALSE(contains(code, "static int32_t ljb"))
            << "no mutable statics";
        EXPECT_TRUE(contains(code, "extern \"C\" int\nasim_run("));
    }
}

/** One body emitter: the program's docycle() body and the library's
 *  are the same text; only the heads and helpers around them differ. */
TEST(CppBackend, LibraryAndProgramShareOneCycleBody)
{
    auto body = [](const std::string &code) {
        const size_t from = code.find("    // cycle body\n");
        const size_t to = code.find("    return 0;\n", from);
        EXPECT_NE(from, std::string::npos);
        EXPECT_NE(to, std::string::npos);
        return code.substr(from, to - from);
    };
    for (const std::string &text :
         {counterSpec(4, 20),
          stackMachineSpec(sieveProgram(5), 1000, true)}) {
        ResolvedSpec rs = resolveText(text);
        const std::string program = body(generateCpp(rs));
        EXPECT_EQ(body(generateCppLibrary(rs)), program);
        EXPECT_GT(program.size(), 100u);
    }
}

TEST(CppBackend, GeneratedCodeIsDeterministic)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    EXPECT_EQ(generateCpp(rs), generateCpp(rs));
    EXPECT_EQ(generatePascal(rs), generatePascal(rs));
}

} // namespace
} // namespace asim

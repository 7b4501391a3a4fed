/** @file
 * Optimizer-behavior tests: superinstruction fusion, dead-store
 * elimination and redundant bounds-check elision (that none of it
 * changes observable behavior is the equivalence suites' job). The
 * disassembly checks cover the same surface `asim-run
 * --dump-bytecode` prints.
 */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "sim/compiler.hh"

namespace asim {
namespace {

int
countOp(const std::vector<Instr> &code, Op op)
{
    int n = 0;
    for (const auto &in : code)
        n += in.op == op ? 1 : 0;
    return n;
}

ResolvedSpec
stackSieve()
{
    return resolveText(stackMachineSpec(sieveProgram(10), 3000));
}

TEST(CompilerOpt, FusionFormsSuperinstructions)
{
    ResolvedSpec rs = stackSieve();
    Program fused = compileProgram(rs);
    EXPECT_GT(fused.opt.fused, 0u);
    // The stack machine's mixed-case selectors are descriptor tables
    // from the emit stage on and reach the cycle unchanged; operand
    // loads fuse into their ALUs, table lookups take their select
    // field inline, and the latch phase folds into one TraceLatchRun
    // dispatch.
    EXPECT_GT(countOp(fused.comb, Op::SelStoreV), 0);
    EXPECT_EQ(countOp(fused.cycle, Op::SelStoreV),
              countOp(fused.comb, Op::SelStoreV));
    EXPECT_GT(countOp(fused.cycle, Op::AluGenF), 0);
    EXPECT_GT(countOp(fused.cycle, Op::SelTableV) +
                  countOp(fused.cycle, Op::SelTableT),
              0);
    EXPECT_EQ(countOp(fused.cycle, Op::TraceLatchRun), 1);
    // Fusion only ever shrinks the executed stream.
    EXPECT_LT(fused.cycle.size(), fused.opt.linked);
}

TEST(CompilerOpt, DeadStoresEliminated)
{
    // Consumer-side fusion orphans the scratch loads it absorbed;
    // the dead-store pass removes them.
    ResolvedSpec rs = stackSieve();
    Program opt = compileProgram(rs);
    EXPECT_GT(opt.opt.deadStores, 0u);
}

TEST(CompilerOpt, RedundantChecksElided)
{
    // The counter's memory address is the constant 0: its bounds
    // check is statically discharged and the update op carries the
    // no-check flag.
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program opt = compileProgram(rs);
    EXPECT_EQ(opt.opt.checksElided, 1u);
    bool flagged = false;
    for (const Instr &in : opt.cycle) {
        if (in.op == Op::MemWriteV)
            flagged = flagged || (in.reg & kMemFlagNoCheck);
    }
    EXPECT_TRUE(flagged);
}

TEST(CompilerOpt, CheckElisionNeverProvesUnsafeAddresses)
{
    // `m` has 4 cells behind a 3-bit address field (range 0..7): its
    // bounds check must survive, while the register's constant
    // address 0 is statically discharged.
    const char *text = "# checked\n"
                       "inc count m .\n"
                       "A inc 4 count 1\n"
                       "M m count.0.2 count 0 4\n"
                       "M count 0 inc 1 1\n"
                       ".\n";
    ResolvedSpec rs = resolveText(text);
    ASSERT_EQ(rs.mems.size(), 2u);
    Program p = compileProgram(rs);
    EXPECT_EQ(p.opt.checksElided, 1u);
}

TEST(CompilerOpt, DisassemblyNamesSuperinstructions)
{
    // What `asim-run --dump-bytecode` prints for the stack machine:
    // the fused stream must disassemble with the superinstruction
    // mnemonics and report the pass counters.
    ResolvedSpec rs = stackSieve();
    Program p = compileProgram(rs);
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("cycle (fused):"), std::string::npos);
    EXPECT_NE(dis.find("selst."), std::string::npos);
    EXPECT_NE(dis.find("trace.latchrun"), std::string::npos);
    EXPECT_NE(dis.find("aluf."), std::string::npos);
    EXPECT_NE(dis.find("mem.gen"), std::string::npos);
    EXPECT_NE(dis.find("fused="), std::string::npos);
    EXPECT_NE(dis.find("deadStores="), std::string::npos);
    EXPECT_NE(dis.find("checksElided="), std::string::npos);
    // The comb schedule: the sieve's network settles in several
    // dependency levels, and grouping by shape leaves fewer runs
    // than components.
    EXPECT_GT(p.opt.levels, 1u);
    EXPECT_GT(p.opt.shapeRuns, 0u);
    EXPECT_LT(p.opt.shapeRuns, rs.comb.size());
    EXPECT_NE(dis.find(" levels=" + std::to_string(p.opt.levels) +
                       " shapeRuns=" + std::to_string(p.opt.shapeRuns) +
                       " hoisted=" + std::to_string(p.opt.hoisted) +
                       "\n"),
              std::string::npos);
    // The hoisted folds print as their own section.
    EXPECT_EQ(p.opt.hoisted, p.hoisted.size());
    EXPECT_NE(dis.find("\nhoisted:\n"), std::string::npos);
    // Every line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

} // namespace
} // namespace asim

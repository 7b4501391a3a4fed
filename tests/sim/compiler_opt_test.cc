/** @file
 * Emit-stage tests: one word per component with its operands as term
 * spans, and redundant bounds-check elision (that none of it changes observable behavior
 * is the equivalence suites' job). The disassembly checks cover the
 * same surface `asim-run --dump-bytecode` prints.
 */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "lang/parser.hh"
#include "machines/stack_machine.hh"
#include "sim/compiler.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

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
    // Each component is one word whatever its operand shapes: the
    // stack machine's mixed-case selectors index case tables, its
    // microcode ROM is a table lookup, its runtime-function ALUs read
    // three spans, and no word loads an operand for another.
    ResolvedSpec rs = stackSieve();
    Program p = compileProgram(rs);
    EXPECT_GT(countOp(p.cycle, Op::SelCase), 0);
    EXPECT_GT(countOp(p.cycle, Op::SelTable), 0);
    EXPECT_GT(countOp(p.cycle, Op::AluGen), 0);
    EXPECT_GT(p.caseTerms.size(), 0u);
    EXPECT_EQ(countOp(p.cycle, Op::Latch), 1);
    EXPECT_EQ(p.latches.size(), rs.mems.size());
    EXPECT_EQ(p.cycle.size(),
              rs.comb.size() - p.hoisted.size() + rs.mems.size() + 2);
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
        if (in.op == Op::MemWrite)
            flagged = flagged || (in.a & kMemFlagNoCheck);
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
    // the cycle stream must disassemble with the one-word-per-component
    // mnemonics and report the emit counters.
    ResolvedSpec rs = stackSieve();
    Program p = compileProgram(rs);
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("\ncycle:\n"), std::string::npos);
    EXPECT_NE(dis.find("selcase"), std::string::npos);
    EXPECT_NE(dis.find(": latch "), std::string::npos);
    EXPECT_NE(dis.find("alu.gen"), std::string::npos);
    EXPECT_NE(dis.find("mem.gen"), std::string::npos);
    EXPECT_NE(dis.find("opt: cycle=" + std::to_string(p.cycle.size()) +
                       " dispatched=" + std::to_string(p.cycle.size()) +
                       " terms=" + std::to_string(p.terms.size()) +
                       " checksElided="),
              std::string::npos);
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
    EXPECT_EQ(dis.rfind("hoisted:\n", 0), 0u);
    // Every line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

/** The whole emitted program of two on-disk specs, as `asim-run
 *  --dump-bytecode` prints it: any change to the words the vm
 *  executes shows here. */
TEST(CompilerOpt, CycleStreamPinned)
{
    const auto dis = [](const char *file) {
        return compileProgram(
                   resolve(parseSpecFile(std::string(ASIM_SPECS_DIR) +
                                         "/" + file)))
            .disassemble();
    };
    EXPECT_EQ(dis("counter.asim"),
              R"(hoisted:
cycle:
  0: alu.mov #0 a=0 b=0 n=1,0,0
      t0: 1 + #1 &15 rot 0
  1: latch #0 a=2 b=0 n=0,0,0
    mem #0 adr=1 opn=1
      t1: 0 + #1 &0 rot 0
      t2: 1 + #1 &0 rot 0
  2: mem.wr #0 a=4 b=0 n=1,0,0
      t3: 0 + #0 &-1 rot 0
  3: end.cycle #0 a=0 b=0 n=0,0,0
cases:
constTable: 0 entries
opt: cycle=4 dispatched=4 terms=4 checksElided=1 levels=1 shapeRuns=1 hoisted=0
)");
    EXPECT_EQ(dis("gcd.asim"),
              R"(hoisted:
cycle:
  0: alu.mov #0 a=0 b=0 n=1,0,0
      t0: 1 + #11 &-1 rot 0
  1: alu.sub #5 a=0 b=0 n=1,1,0
      t1: 0 + #9 &-1 rot 0
      t2: 0 + #10 &-1 rot 0
  2: alu.sub #6 a=0 b=0 n=1,1,0
      t3: 0 + #10 &-1 rot 0
      t4: 0 + #9 &-1 rot 0
  3: alu.lt #1 a=0 b=0 n=1,1,0
      t5: 0 + #1 &0 rot 0
      t6: 0 + #11 &-1 rot 0
  4: alu.lt #3 a=0 b=0 n=1,1,0
      t7: 0 + #10 &-1 rot 0
      t8: 0 + #9 &-1 rot 0
  5: alu.lt #4 a=0 b=0 n=1,1,0
      t9: 0 + #9 &-1 rot 0
      t10: 0 + #10 &-1 rot 0
  6: seltab #2 a=0 b=2 n=1,0,0
      t11: 0 + #1 &1 rot 0
  7: selcase #7 a=0 b=2 n=1,1,0
      t12: 0 + #3 &1 rot 0
  8: selcase #8 a=2 b=2 n=1,1,0
      t13: 0 + #4 &1 rot 0
  9: latch #0 a=6 b=0 n=0,0,0
    mem #0 adr=1 opn=1
      t14: 0 + #9 &0 rot 0
      t15: 0 + #2 &-1 rot 0
    mem #1 adr=1 opn=1
      t16: 0 + #10 &0 rot 0
      t17: 0 + #2 &-1 rot 0
    mem #2 adr=1 opn=1
      t18: 0 + #11 &0 rot 0
      t19: 1 + #11 &0 rot 0
  10: mem.gen #0 a=7 b=0 n=1,0,0
      t20: 0 + #7 &-1 rot 0
  11: mem.gen #1 a=7 b=0 n=1,0,0
      t21: 0 + #8 &-1 rot 0
  12: mem.wr #2 a=4 b=0 n=1,0,0
      t22: 0 + #0 &-1 rot 0
  13: end.cycle #0 a=0 b=0 n=0,0,0
cases:
  0: 0 + #9 &-1 rot 0
  1: 0 + #5 &-1 rot 0
  2: 0 + #10 &-1 rot 0
  3: 0 + #6 &-1 rot 0
constTable: 2 entries
opt: cycle=14 dispatched=14 terms=23 checksElided=3 levels=2 shapeRuns=5 hoisted=0
)");
}

} // namespace
} // namespace asim

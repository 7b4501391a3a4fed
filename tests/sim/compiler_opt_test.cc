/** @file
 * Emit-stage tests: superinstructions, absorbed loads and redundant
 * bounds-check elision (that none of it changes observable behavior
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

/** True for the superinstruction words `opt.fused` counts: each one
 *  stands for two or more simple words. */
bool
superinstruction(Op op)
{
    const auto in = [op](Op first, Op last) {
        return op >= first && op <= last;
    };
    return in(Op::LoadPairCC, Op::MemLatchCV) ||
           in(Op::AluFAddVV, Op::AluFLtCV) ||
           in(Op::TraceLatchRun, Op::MemGenV);
}

TEST(CompilerOpt, FusionFormsSuperinstructions)
{
    ResolvedSpec rs = stackSieve();
    Program fused = compileProgram(rs);
    EXPECT_GT(fused.opt.fused, 0u);
    // The stack machine's mixed-case selectors are descriptor tables;
    // operand loads fuse into their ALUs, table lookups take their
    // select field inline, and the latch phase folds into one
    // TraceLatchRun dispatch.
    EXPECT_GT(countOp(fused.cycle, Op::SelStoreV), 0);
    EXPECT_GT(countOp(fused.cycle, Op::AluGenF), 0);
    EXPECT_GT(countOp(fused.cycle, Op::SelTableV), 0);
    EXPECT_EQ(countOp(fused.cycle, Op::TraceLatchRun), 1);
    // The counter is the number of superinstruction words emitted.
    uint32_t words = 0;
    for (const Instr &in : fused.cycle)
        words += superinstruction(in.op);
    EXPECT_EQ(words, fused.opt.fused);
}

TEST(CompilerOpt, DeadStoresEliminated)
{
    // A consumer that takes its operand inline (a table lookup's
    // select field, a memory op's data) absorbs the scratch load: it
    // is never emitted, so no dead store precedes the consumer. (A
    // component's first word follows the previous component's last,
    // which is never a load.)
    ResolvedSpec rs = stackSieve();
    Program p = compileProgram(rs);
    int consumers = 0;
    for (size_t i = 1; i < p.cycle.size(); ++i) {
        switch (p.cycle[i].op) {
          case Op::SelTableV:
          case Op::MemWriteC:
          case Op::MemWriteV:
          case Op::MemOutputC:
          case Op::MemOutputV:
          case Op::MemGenC:
          case Op::MemGenV: {
            const Op before = p.cycle[i - 1].op;
            EXPECT_TRUE(before != Op::SetC && before != Op::LoadVar)
                << "word " << i - 1 << " " << opName(before);
            ++consumers;
            break;
          }
          default:
            break;
        }
    }
    EXPECT_GT(consumers, 0);
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
    // the cycle stream must disassemble with the superinstruction
    // mnemonics and report the emit counters.
    ResolvedSpec rs = stackSieve();
    Program p = compileProgram(rs);
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("\ncycle:\n"), std::string::npos);
    EXPECT_NE(dis.find("selst."), std::string::npos);
    EXPECT_NE(dis.find("trace.latchrun"), std::string::npos);
    EXPECT_NE(dis.find("aluf."), std::string::npos);
    EXPECT_NE(dis.find("mem.gen"), std::string::npos);
    EXPECT_NE(dis.find("opt: cycle=" + std::to_string(p.cycle.size()) +
                       " fused="),
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
  0: aluf.Add.VC r0 #0 a=15 b=0 c=1
  1: ext r0 #0 a=1 b=0 c=0
  2: trace.latchrun r0 #0 a=0 b=1 c=0
  3: mlatch.cc r0 #0 a=0 b=1 c=0
  4: mem.wrv r4 #0 a=-1 b=0 c=0
  5: end.cycle r0 #0 a=0 b=0 c=0
constTable: 0 entries
opt: cycle=6 fused=4 checksElided=1 levels=1 shapeRuns=1 hoisted=0
)");
    EXPECT_EQ(dis("gcd.asim"),
              R"(hoisted:
cycle:
  0: aluf.Lt.CV r0 #1 a=0 b=0 c=0
  1: ext r0 #0 a=-1 b=0 c=11
  2: aluf.Lt.VV r0 #3 a=-1 b=0 c=10
  3: ext r0 #0 a=-1 b=0 c=9
  4: aluf.Lt.VV r0 #4 a=-1 b=0 c=9
  5: ext r0 #0 a=-1 b=0 c=10
  6: aluf.Add.VC r0 #0 a=-1 b=0 c=11
  7: ext r0 #0 a=1 b=0 c=0
  8: aluf.Sub.VV r0 #5 a=-1 b=0 c=9
  9: ext r0 #0 a=-1 b=0 c=10
  10: aluf.Sub.VV r0 #6 a=-1 b=0 c=10
  11: ext r0 #0 a=-1 b=0 c=9
  12: seltab.v r0 #2 a=0 b=2 c=0
  13: ext r0 #1 a=1 b=0 c=0
  14: selst.v r0 #7 a=0 b=2 c=1
  15: ext r0 #0 a=1 b=0 c=3
  16: ext r0 #9 a=-1 b=0 c=0
  17: ext r0 #5 a=-1 b=0 c=0
  18: selst.v r0 #8 a=0 b=2 c=2
  19: ext r0 #0 a=1 b=0 c=4
  20: ext r0 #10 a=-1 b=0 c=0
  21: ext r0 #6 a=-1 b=0 c=0
  22: trace.latchrun r0 #0 a=0 b=5 c=0
  23: mlatch.cv r0 #0 a=0 b=0 c=0
  24: ext r0 #0 a=-1 b=0 c=2
  25: mlatch.cv r0 #1 a=0 b=0 c=0
  26: ext r0 #1 a=-1 b=0 c=2
  27: mlatch.cc r0 #2 a=0 b=1 c=0
  28: mem.genv r7 #0 a=-1 b=0 c=7
  29: mem.genv r7 #1 a=-1 b=0 c=8
  30: mem.wrv r4 #2 a=-1 b=0 c=0
  31: end.cycle r0 #0 a=0 b=0 c=0
constTable: 2 entries
opt: cycle=32 fused=14 checksElided=3 levels=2 shapeRuns=6 hoisted=0
)");
}

} // namespace
} // namespace asim

/** @file VM-specific tests: compilation and optimization behavior. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "sim/compiler.hh"
#include "sim/simulation.hh"
#include "sim/vm.hh"

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

TEST(Vm, ConstAluInlined)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program withOpt = compileProgram(rs, {});
    CompilerOptions off;
    off.inlineConstAlu = false;
    Program without = compileProgram(rs, off);
    // Constant function 4 gets the direct add opcode.
    EXPECT_EQ(countOp(withOpt.comb, Op::AluGen), 0);
    EXPECT_EQ(countOp(withOpt.comb, Op::AluAdd), 1);
    EXPECT_EQ(countOp(without.comb, Op::AluGen), 1);
    EXPECT_EQ(countOp(without.comb, Op::AluAdd), 0);
}

TEST(Vm, SingleFieldLatchesFused)
{
    // The counter memory's address (constant 0) and operation
    // (constant 1) fuse into immediate latch opcodes.
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs, {});
    EXPECT_EQ(countOp(p.latch, Op::MemAdrC), 1);
    EXPECT_EQ(countOp(p.latch, Op::MemOpnC), 1);
    EXPECT_EQ(countOp(p.latch, Op::MemAdr), 0);
    EXPECT_EQ(countOp(p.latch, Op::MemOpn), 0);
}

TEST(Vm, DisassemblerCoversProgram)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Vm vm(rs, {}, {});
    std::string dis = vm.program().disassemble();
    EXPECT_NE(dis.find("comb:"), std::string::npos);
    EXPECT_NE(dis.find("latch:"), std::string::npos);
    EXPECT_NE(dis.find("update:"), std::string::npos);
    EXPECT_NE(dis.find("seltab"), std::string::npos);
    // Every emitted line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

TEST(Vm, ConstMemSpecialized)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs, {});
    EXPECT_EQ(countOp(p.update, Op::MemWrite), 1);
    EXPECT_EQ(countOp(p.update, Op::MemGenPre), 0);

    CompilerOptions off;
    off.specializeConstMem = false;
    Program q = compileProgram(rs, off);
    EXPECT_EQ(countOp(q.update, Op::MemWrite), 0);
    EXPECT_EQ(countOp(q.update, Op::MemGenPre), 1);
}

TEST(Vm, ConstSelectorBecomesTable)
{
    // The stack machine's microcode ROM is an all-constant selector.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Program p = compileProgram(rs, {});
    EXPECT_GT(countOp(p.comb, Op::SelTable), 0);

    CompilerOptions off;
    off.constSelectorTables = false;
    Program q = compileProgram(rs, off);
    EXPECT_EQ(countOp(q.comb, Op::SelTable), 0);
    EXPECT_GT(countOp(q.comb, Op::Switch), 0);
}

TEST(Vm, AllConstAluFullyFolded)
{
    ResolvedSpec rs = resolveText("# fold\n"
                                  "r .\n"
                                  "A r 4 20 22\n"
                                  ".\n");
    Vm vm(rs, {}, {});
    // Constant-folded to SetC + StoreS: no ALU op at all.
    EXPECT_EQ(countOp(vm.program().comb, Op::AluConst), 0);
    EXPECT_EQ(countOp(vm.program().comb, Op::AluGen), 0);
    vm.step();
    EXPECT_EQ(vm.value("r"), 42);
}

TEST(Vm, OptimizationsPreserveSemantics)
{
    // Same machine with every optimization flag combination: final
    // state must agree.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 3000));
    std::vector<int32_t> reference;
    for (int m = 0; m < 16; ++m) {
        CompilerOptions opts;
        opts.inlineConstAlu = m & 1;
        opts.specializeConstMem = m & 2;
        opts.constSelectorTables = m & 4;
        opts.elideUnusedTemps = m & 8;
        VectorIo io;
        EngineConfig cfg;
        cfg.io = &io;
        Vm vm(rs, cfg, opts);
        vm.run(3000);
        if (reference.empty()) {
            reference = io.outputsAt(1);
            EXPECT_FALSE(reference.empty());
        } else {
            EXPECT_EQ(io.outputsAt(1), reference) << "flags " << m;
        }
    }
}

TEST(Vm, TempElisionOnlyTouchesUnobservedMemories)
{
    // `m` is read by nothing: with elideUnusedTemps its latch may stay
    // zero, but cells and every observed component are unaffected.
    const char *text = "# elide\n"
                       "inc count m .\n"
                       "A inc 4 count 1\n"
                       "M m count.0.2 count 0 8\n"
                       "M count 0 inc 1 1\n"
                       ".\n";
    ResolvedSpec rs = resolveText(text);
    CompilerOptions opts;
    opts.elideUnusedTemps = true;
    Vm vm(rs, {}, opts);
    vm.run(5);
    Vm plain(rs, {}, {});
    plain.run(5);
    EXPECT_EQ(vm.value("count"), plain.value("count"));
    EXPECT_EQ(vm.stats().mems[0].reads, plain.stats().mems[0].reads);
}

TEST(Vm, ProgramSizesReported)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Vm vm(rs, {}, {});
    EXPECT_GT(vm.program().totalInstructions(), 0u);
}

TEST(Vm, RefusesMoreSlotsThanInstrIdxNumbers)
{
    // ~70k components: more var slots than the 16-bit Instr::idx can
    // number.
    SimulationOptions opts;
    opts.resolved = std::make_shared<const ResolvedSpec>(
        resolve(generateSynthetic(syntheticPreset("70000"))));
    ASSERT_GT(opts.resolved->numVarSlots, 65536);
    opts.engine = "vm";
    try {
        Simulation sim(opts);
        FAIL() << "the vm accepted a spec beyond its slot numbering";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("65536"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(opts.resolved->numVarSlots)),
                  std::string::npos)
            << what;
    }
    opts.engine = "interp";
    Simulation interp(opts);
    EXPECT_EQ(interp.cycle(), 0u);
}

} // namespace
} // namespace asim

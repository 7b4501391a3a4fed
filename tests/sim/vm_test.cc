/** @file VM-specific tests: compilation and optimization behavior. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "sim/checkpoint.hh"
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
    Program p = compileProgram(rs);
    // Constant function 4 gets the direct add, with the latch field
    // and the constant inline.
    EXPECT_EQ(countOp(p.cycle, Op::AluGen), 0);
    EXPECT_EQ(countOp(p.cycle, Op::AluGenF), 0);
    EXPECT_EQ(countOp(p.cycle, Op::AluFAddVC), 1);
}

TEST(Vm, SingleFieldLatchesFused)
{
    // The counter memory's address (constant 0) and operation
    // (constant 1) latch in one immediate word.
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs);
    EXPECT_EQ(countOp(p.cycle, Op::MemLatchCC), 1);
    for (Op op : {Op::MemAdrC, Op::MemOpnC, Op::MemAdr, Op::MemOpn})
        EXPECT_EQ(countOp(p.cycle, op), 0) << opName(op);
}

TEST(Vm, DisassemblerCoversProgram)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Vm vm(rs);
    std::string dis = vm.program().disassemble();
    EXPECT_EQ(dis.rfind("hoisted:\n", 0), 0u);
    EXPECT_NE(dis.find("\ncycle:\n"), std::string::npos);
    EXPECT_NE(dis.find("seltab"), std::string::npos);
    // Every emitted line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

TEST(Vm, ConstMemSpecialized)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs);
    // A write with its one-field data inline; no generic memory op.
    EXPECT_EQ(countOp(p.cycle, Op::MemWriteV), 1);
    for (Op op : {Op::MemGenPre, Op::MemGenData, Op::MemGenC, Op::MemGenV})
        EXPECT_EQ(countOp(p.cycle, op), 0) << opName(op);
}

TEST(Vm, ConstSelectorBecomesTable)
{
    // The stack machine's microcode ROM is an all-constant selector.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Program p = compileProgram(rs);
    EXPECT_GT(countOp(p.cycle, Op::SelTable) +
                  countOp(p.cycle, Op::SelTableV),
              0);
    EXPECT_GT(p.constTable.size(), 0u);
}

TEST(Vm, AllConstAluFullyFolded)
{
    ResolvedSpec rs = resolveText("# fold\n"
                                  "r .\n"
                                  "A r 4 20 22\n"
                                  ".\n");
    Vm vm(rs);
    // Constant-folded to one AluFold: no dologic dispatch at all,
    // but still counted as the ALU evaluation the interpreter counts.
    // Nothing can fault, so the fold is hoisted out of the cycle.
    const Program &p = vm.program();
    EXPECT_EQ(countOp(p.cycle, Op::AluConst), 0);
    EXPECT_EQ(countOp(p.cycle, Op::AluGen), 0);
    EXPECT_EQ(countOp(p.cycle, Op::AluFold), 0);
    ASSERT_EQ(p.hoisted.size(), 1u);
    EXPECT_EQ(p.hoisted[0].op, Op::AluFold);
    EXPECT_EQ(p.hoisted[0].a, 42);
    vm.step();
    EXPECT_EQ(vm.value("r"), 42);
    EXPECT_EQ(vm.stats().aluEvals, 1u);
}

/** Run `e` until it faults; the SimError text, or "" if it never
 *  does within `cycles`. */
std::string
runToFault(Engine &e, uint64_t cycles)
{
    try {
        e.run(cycles);
    } catch (const SimError &err) {
        return err.what();
    }
    return "";
}

TEST(Vm, FaultOrderMatchesInterpreter)
{
    // At cycle 3 (m = 3) two components fault: selector s (index 3 of
    // 3 cases) and ALU f (function k.0.3 = 14). Both sit one level
    // above independent ALUs of mixed shapes, which the vm's comb
    // schedule would otherwise hoist in front of them. Whichever
    // fault rs.comb reaches first must surface, with the
    // interpreter's partial-cycle state and statistics.
    const std::string head = "# fault order\n"
                             "inc k a0 a1 a2 s f b0 b1 b2 b3 m .\n"
                             "A inc 4 m 1\n"
                             "A k 4 m 11\n"
                             "A a0 4 m 5\n"
                             "A a1 5 m.0.2 2\n"
                             "A a2 8 m 6\n";
    const std::string sel = "S s m.0.1 m inc k\n";
    const std::string alu = "A f k.0.3 m 2\n";
    const std::string tail = "A b0 4 m 9\n"
                             "A b1 7 m 3\n"
                             "A b2 5 m.0.2 4\n"
                             "A b3 9 m 1\n"
                             "M m 0 inc 1 1\n"
                             ".\n";
    struct Case
    {
        std::string text;
        std::string fault;
    };
    for (const Case &c :
         {Case{head + sel + alu + tail,
               "selector s index 3 outside its 3 cases (cycle 3)"},
          Case{head + alu + sel + tail,
               "ALU function 14 out of range 0..13"}}) {
        ResolvedSpec rs = resolveText(c.text);
        auto vm = makeVm(rs);
        auto interp = makeInterpreter(rs);
        const std::string vmFault = runToFault(*vm, 10);
        EXPECT_EQ(vmFault, c.fault);
        EXPECT_EQ(vmFault, runToFault(*interp, 10));
        EXPECT_EQ(encodeCheckpoint(vm->snapshot(), 0, "test"),
                  encodeCheckpoint(interp->snapshot(), 0, "test"))
            << c.fault;
        EXPECT_EQ(vm->stats().aluEvals, interp->stats().aluEvals);
        EXPECT_EQ(vm->stats().selEvals, interp->stats().selEvals);
        EXPECT_EQ(vm->stats().summary(), interp->stats().summary());
    }
}

/** Folds on both sides of selector `s`, which may fault (index
 *  m.0.1 against 3 cases) and does at cycle 3. k0 sits ahead of it in
 *  rs.comb, so the compiler hoists it out of the cycle; k1 and k2
 *  follow it and stay in the stream. */
const char *const kHoistSpec = "# hoisted folds\n"
                               "k0 inc s k1 k2 m .\n"
                               "A k0 4 20 22\n"
                               "A inc 4 m 1\n"
                               "S s m.0.1 m inc k0\n"
                               "A k1 2 7 0\n"
                               "A k2 9 3 12\n"
                               "M m 0 inc 1 1\n"
                               ".\n";

std::string
checkpointOf(const Engine &e)
{
    return encodeCheckpoint(e.snapshot(), 0, "test");
}

TEST(Vm, HoistedFoldsSplitAtTheFirstBarrier)
{
    ResolvedSpec rs = resolveText(kHoistSpec);
    std::vector<std::string> order;
    for (const CombComp &c : rs.comb)
        order.emplace_back(rs.name(c.name));
    ASSERT_EQ(order, (std::vector<std::string>{"k0", "inc", "s", "k1",
                                               "k2"}));
    Vm vm(rs);
    const Program &p = vm.program();
    // s is the barrier: the folds after it stay in the cycle, the
    // one before it is hoisted, and all three are emitted once.
    const auto barrier =
        std::find_if(p.cycle.begin(), p.cycle.end(), [&](const Instr &in) {
            return in.op == Op::SelStoreV && in.idx == rs.comb[2].slot;
        });
    ASSERT_NE(barrier, p.cycle.end());
    EXPECT_EQ(std::count_if(p.cycle.begin(), barrier,
                            [](const Instr &in) {
                                return in.op == Op::AluFold;
                            }),
              0);
    EXPECT_EQ(countOp(p.cycle, Op::AluFold), 2);
    ASSERT_EQ(p.hoisted.size(), 1u);
    EXPECT_EQ(p.hoisted[0].idx, rs.comb[0].slot);
    EXPECT_EQ(p.opt.hoisted, 1u);
    EXPECT_NE(p.disassemble().find(" hoisted=1\n"), std::string::npos);
}

TEST(Vm, HoistedFoldsRewrittenAfterRestore)
{
    // A checkpoint whose fold slots hold wrong values: the next cycle
    // must leave the interpreter's bytes, both when it completes and
    // when it faults at s with k1 and k2 not yet evaluated.
    auto rs = std::make_shared<const ResolvedSpec>(resolveText(kHoistSpec));
    for (uint64_t at : {0u, 1u, 3u}) {
        auto ref = makeInterpreter(rs);
        ref->run(at);
        EngineSnapshot snap = ref->snapshot();
        for (const CombComp &c : rs->comb) {
            if (rs->name(c.name) != "inc" && rs->name(c.name) != "s")
                snap.state.vars[c.slot] = 1000 + c.slot;
        }
        auto vm = makeVm(rs);
        auto interp = makeInterpreter(rs);
        vm->restore(snap);
        interp->restore(snap);
        EXPECT_EQ(runToFault(*vm, 1), runToFault(*interp, 1))
            << "cycle " << at;
        EXPECT_EQ(checkpointOf(*vm), checkpointOf(*interp))
            << "cycle " << at;
    }
}

TEST(Vm, HoistedFoldsCountedAtMidCycleFault)
{
    // The fault ends cycle 3 partway: the hoisted k0 counts for it,
    // as the interpreter evaluated k0 before reaching s.
    ResolvedSpec rs = resolveText(kHoistSpec);
    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    const std::string fault = runToFault(*vm, 10);
    EXPECT_EQ(fault, "selector s index 3 outside its 3 cases (cycle 3)");
    EXPECT_EQ(fault, runToFault(*interp, 10));
    EXPECT_EQ(vm->cycle(), interp->cycle());
    EXPECT_EQ(vm->stats().aluEvals, interp->stats().aluEvals);
    EXPECT_EQ(vm->stats().summary(), interp->stats().summary());
    EXPECT_EQ(checkpointOf(*vm), checkpointOf(*interp));
}

TEST(Vm, HoistedFoldsStepMatchesRun)
{
    // Each run call writes the hoisted list once; n single steps and
    // one run of n cycles count the same ALU evaluations.
    for (const std::string &text :
         {std::string(kHoistSpec),
          std::string("# all hoisted\n"
                      "k0 inc s k1 m .\n"
                      "A k0 4 20 22\n"
                      "A inc 4 m 1\n"
                      "S s m.0.0 m inc k0\n"
                      "A k1 2 7 0\n"
                      "M m 0 inc 1 1\n"
                      ".\n")}) {
        auto rs = std::make_shared<const ResolvedSpec>(resolveText(text));
        auto stepped = makeVm(rs);
        auto whole = makeVm(rs);
        auto interp = makeInterpreter(rs);
        for (int i = 0; i < 3; ++i)
            stepped->step();
        whole->run(3);
        interp->run(3);
        EXPECT_EQ(checkpointOf(*stepped), checkpointOf(*interp));
        EXPECT_EQ(checkpointOf(*whole), checkpointOf(*interp));
        EXPECT_EQ(stepped->stats().aluEvals, interp->stats().aluEvals);
    }
}

TEST(Vm, ProgramSizesReported)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Vm vm(rs);
    EXPECT_GT(vm.program().cycle.size(), 0u);
}

TEST(Vm, RefusesMoreSlotsThanInstrIdxNumbers)
{
    // ~70k components: more value slots than the 16-bit Instr::idx
    // can number.
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
        const size_t slots =
            opts.resolved->numVarSlots + opts.resolved->mems.size();
        EXPECT_NE(what.find(std::to_string(slots)), std::string::npos)
            << what;
    }
    opts.engine = "interp";
    Simulation interp(opts);
    EXPECT_EQ(interp.cycle(), 0u);
}

} // namespace
} // namespace asim

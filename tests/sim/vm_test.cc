/** @file VM-specific tests: compilation and optimization behavior. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/io.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "sim/vm.hh"
#include "support/rand.hh"

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
    // Constant function 4 needs no dologic: the sum of the latch field
    // and the constant 1 is one span, the constant riding as the
    // field's bias.
    EXPECT_EQ(countOp(p.cycle, Op::AluGen), 0);
    EXPECT_EQ(countOp(p.cycle, Op::AluConst), 0);
    ASSERT_EQ(countOp(p.cycle, Op::AluMov), 1);
    const Instr &add = p.cycle[0];
    ASSERT_EQ(add.op, Op::AluMov);
    EXPECT_EQ(add.n[0], 1);
    EXPECT_EQ(p.terms[0].mask, 15);
    EXPECT_EQ(p.terms[0].bias, 1);
}

TEST(Vm, SingleFieldLatchesFused)
{
    // The counter memory's address (constant 0) and operation
    // (constant 1) latch in the one latch word, one term each.
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs);
    ASSERT_EQ(countOp(p.cycle, Op::Latch), 1);
    ASSERT_EQ(p.latches.size(), 1u);
    EXPECT_EQ(p.latches[0].adr, 1);
    EXPECT_EQ(p.latches[0].opn, 1);
}

TEST(Vm, DisassemblerCoversProgram)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Vm vm(rs);
    std::string dis = vm.program().disassemble();
    EXPECT_EQ(dis.rfind("hoisted:\n", 0), 0u);
    EXPECT_NE(dis.find("\ncycle:\n"), std::string::npos);
    EXPECT_NE(dis.find("\ncases:\n"), std::string::npos);
    EXPECT_NE(dis.find("seltab"), std::string::npos);
    // Every emitted line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

TEST(Vm, ConstMemSpecialized)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs);
    // A write with its one-field data span; no generic memory op.
    EXPECT_EQ(countOp(p.cycle, Op::MemWrite), 1);
    EXPECT_EQ(countOp(p.cycle, Op::MemGen), 0);
}

TEST(Vm, ConstSelectorBecomesTable)
{
    // The stack machine's microcode ROM is an all-constant selector.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Program p = compileProgram(rs);
    EXPECT_GT(countOp(p.cycle, Op::SelTable), 0);
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
            return in.op == Op::SelCase &&
                   in.dst == static_cast<uint32_t>(rs.comb[2].slot);
        });
    ASSERT_NE(barrier, p.cycle.end());
    EXPECT_EQ(std::count_if(p.cycle.begin(), barrier,
                            [](const Instr &in) {
                                return in.op == Op::AluFold;
                            }),
              0);
    EXPECT_EQ(countOp(p.cycle, Op::AluFold), 2);
    ASSERT_EQ(p.hoisted.size(), 1u);
    EXPECT_EQ(p.hoisted[0].dst, static_cast<uint32_t>(rs.comb[0].slot));
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

/** The comb phase of the cycle stream: every word before the trace
 *  point. */
std::vector<Instr>
combWords(const Program &p)
{
    const auto trace = std::find_if(
        p.cycle.begin(), p.cycle.end(),
        [](const Instr &in) { return in.op == Op::Latch; });
    return {p.cycle.begin(), trace};
}

TEST(Vm, OneDispatchPerCombComponent)
{
    // Every comb component the cycle evaluates is exactly one word,
    // every memory update one more, and the trace point and latch
    // phase one; the cursor's spans add up to the term array.
    for (const ResolvedSpec &rs :
         {resolve(generateSynthetic(syntheticPreset("2000"))),
          resolveText(stackMachineSpec(sieveProgram(10), 3000))}) {
        const Program p = compileProgram(rs);
        EXPECT_EQ(combWords(p).size(), rs.comb.size() - p.hoisted.size());
        EXPECT_EQ(p.cycle.size(),
                  rs.comb.size() - p.hoisted.size() + rs.mems.size() + 2);
        size_t cursor = 0, cases = 0;
        for (const Instr &in : p.cycle) {
            cursor += cursorTerms(in);
            if (in.op == Op::SelCase)
                cases += static_cast<size_t>(in.b) * in.n[1];
            for (uint8_t len : in.n)
                EXPECT_LE(len, 31);
        }
        EXPECT_EQ(cursor, p.terms.size());
        EXPECT_EQ(cases, p.caseTerms.size());
    }
}

TEST(Vm, SlotsPastSixteenBitsMatchInterp)
{
    // ~70k components: more value slots than 16 bits number. The vm
    // runs it and leaves the interpreter's checkpoint and statistics.
    auto rs = std::make_shared<const ResolvedSpec>(
        resolve(generateSynthetic(syntheticPreset("70000"))));
    ASSERT_GT(rs->numVarSlots, 65536);
    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    vm->run(8);
    interp->run(8);
    EXPECT_EQ(vm->cycle(), 8u);
    EXPECT_EQ(checkpointOf(*vm), checkpointOf(*interp));
    EXPECT_EQ(vm->stats().summary(), interp->stats().summary());
}

/**
 * One member of a generated family of specs whose every operand role
 * (an ALU's funct, left and right, a selector's select and cases, a
 * memory's address, operation and data) takes 0 to 5 fields, with and
 * without a constant part, with whole-word terms and fields shifted
 * right. A seed draws the shapes. Expressions read a counting register `t`, two mixers of it,
 * memory latches and the components declared before them.
 */
class SpanFamily
{
  public:
    explicit SpanFamily(uint64_t seed)
        : rng_(seed), seed_(seed)
    {}

    std::string
    spec()
    {
        std::ostringstream body;
        std::vector<std::string> names = {"t", "inc", "h", "g", "z"};
        body << "A inc 4 t 1\nA h 7 t 40503\nA g 10 h t\nA z 0 0 0\n";
        sources_ = {"t", "h", "g"};
        // The memories first, so every expression may read a latch.
        for (int i = 0; i < 3; ++i) {
            const std::string name = "m" + std::to_string(i);
            sources_.push_back(name);
            names.push_back(name);
        }
        for (int i = 0; i < 6; ++i) {
            const std::string name = "a" + std::to_string(i);
            const std::string f = operand(false, 14);
            const std::string l = operand(true, 0);
            const std::string r = operand(true, 0);
            body << "A " << name << " " << f << " " << l << " " << r << "\n";
            sources_.push_back(name);
            names.push_back(name);
        }
        for (int i = 0; i < 3; ++i) {
            const std::string name = "s" + std::to_string(i);
            int64_t max = 0;
            const std::string sel = operand(false, 40, 5, &max);
            // The widest case sets the table's K: vary it per selector.
            const int widest = 1 + static_cast<int>(rng_.below(5));
            body << "S " << name << " " << sel;
            for (int64_t c = 0; c <= max; ++c)
                body << " " << operand(true, 0, widest);
            body << "\n";
            sources_.push_back(name);
            names.push_back(name);
        }
        for (int i = 0; i < 3; ++i) {
            const std::string adr = operand(false, 16);
            const std::string data = operand(true, 0);
            const std::string op = opn();
            body << "M m" << i << " " << adr << " " << data << " " << op
                 << " 16\n";
        }
        body << "M t 0 inc 1 1\n";
        std::string text = "# term spans " + std::to_string(seed_) + "\n";
        for (const std::string &n : names)
            text += n + "* ";
        return text + ".\n" + body.str() + ".\n";
    }

  private:
    struct Piece
    {
        std::string text;
        int64_t max = 0;
        bool field = false;
    };

    /** An operand expression of 0 to `maxFields` fields, with or
     *  without a constant part. */
    std::string
    operand(bool allowWhole, int64_t limit, int maxFields = 5,
            int64_t *maxOut = nullptr)
    {
        const int fields =
            static_cast<int>(rng_.below(static_cast<uint64_t>(maxFields) + 1));
        if (fields == 0) {
            // A bare constant: a constant function covers every ALU
            // opcode, and folds.
            const int64_t v = static_cast<int64_t>(
                rng_.below(limit > 0 ? static_cast<uint64_t>(limit) : 1000));
            if (maxOut)
                *maxOut = v;
            return std::to_string(v);
        }
        return expr(fields, rng_.below(2) == 1, allowWhole, limit, maxOut);
    }

    /** A memory operation: constants cover every specialized op, with
     *  and without the trace bits (opn & 5 == 5, opn & 9 == 8). */
    std::string
    opn()
    {
        if (rng_.below(6) == 0) {
            static const int kOps[] = {0, 1, 2, 3, 5, 8, 9, 13};
            return std::to_string(kOps[rng_.below(8)]);
        }
        return operand(true, 0);
    }

    /** `fields` fields (and a constant), leftmost first; below `limit`
     *  when it is nonzero: the fields that could reach it read `z`,
     *  always zero, instead. */
    std::string
    expr(int fields, bool withConst, bool allowWhole, int64_t limit,
         int64_t *maxOut)
    {
        // Built from the lowest bits up.
        std::vector<Piece> pieces;
        int pos = 0;
        const int count = fields + (withConst ? 1 : 0);
        const int constAt =
            withConst ? (limit > 0 ? 0 : static_cast<int>(rng_.below(count)))
                      : -1;
        for (int i = 0; i < count; ++i) {
            Piece p;
            if (i == constAt) {
                const int w = 1 + static_cast<int>(rng_.below(2));
                const int64_t v = static_cast<int64_t>(rng_.below(1u << w));
                p.text = "#";
                for (int b = w - 1; b >= 0; --b)
                    p.text += static_cast<char>('0' + ((v >> b) & 1));
                p.max = v << pos;
                pos += w;
            } else if (allowWhole && i == count - 1 && rng_.below(3) == 0) {
                p.text = source();
                p.max = int64_t{1} << 40;
                p.field = true;
            } else {
                const int w = 1 + static_cast<int>(rng_.below(3));
                const int from = static_cast<int>(rng_.below(8));
                p.text = source() + "." + std::to_string(from);
                if (w > 1 || rng_.below(2) == 0)
                    p.text += "." + std::to_string(from + w - 1);
                p.max = ((int64_t{1} << w) - 1) << pos;
                p.field = true;
                pos += w;
            }
            pieces.push_back(p);
        }
        const auto total = [&pieces] {
            int64_t m = 0;
            for (const Piece &p : pieces)
                m += p.max;
            return m;
        };
        while (limit > 0 && total() >= limit) {
            Piece *top = nullptr;
            for (Piece &p : pieces) {
                if (p.field && p.max > 0 && (!top || p.max > top->max))
                    top = &p;
            }
            top->text = "z" + top->text.substr(top->text.find('.'));
            top->max = 0;
        }
        if (maxOut)
            *maxOut = total();
        std::string text;
        for (auto it = pieces.rbegin(); it != pieces.rend(); ++it)
            text += (text.empty() ? "" : ",") + it->text;
        return text;
    }

    std::string
    source()
    {
        return sources_[rng_.below(sources_.size())];
    }

    SplitMix64 rng_;
    uint64_t seed_;
    std::vector<std::string> sources_;
};

/** Trace, I/O, final checkpoint and statistics of `cycles` cycles of
 *  `engine`, and the fault text if one ended the run. */
std::string
observe(const std::shared_ptr<const ResolvedSpec> &rs,
        const std::string &engine, uint64_t cycles, std::string &fault)
{
    std::ostringstream trace;
    StreamTrace sink(trace);
    VectorIo io;
    for (int i = 0; i < 400; ++i)
        io.pushInput(i * 37 % 101);
    EngineConfig cfg;
    cfg.trace = &sink;
    cfg.io = &io;
    auto e = engine == "vm" ? makeVm(rs, cfg) : makeInterpreter(rs, cfg);
    fault = runToFault(*e, cycles);
    return trace.str() + "\n--io--\n" + io.text() + "\n--fault--\n" +
           fault + "\n--checkpoint--\n" + checkpointOf(*e) +
           "\n--stats--\n" + e->stats().summary();
}

TEST(Vm, TermSpansMatchInterp)
{
    // Span lengths seen per (opcode, span position; the latch phase's
    // address and operation count as Latch's), and the term forms: a
    // whole word shifted left, a field shifted right.
    std::map<std::pair<Op, int>, std::set<int>> lengths;
    bool wholeShifted = false, rightShift = false;
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const std::string text = SpanFamily(seed).spec();
        auto rs = std::make_shared<const ResolvedSpec>(resolveText(text));
        const Program p = compileProgram(*rs);
        for (const Instr &in : p.cycle) {
            for (int i = 0; i < 3; ++i)
                lengths[{in.op, i}].insert(in.n[i]);
        }
        for (const VmLatch &l : p.latches) {
            lengths[{Op::Latch, 0}].insert(l.adr);
            lengths[{Op::Latch, 1}].insert(l.opn);
        }
        for (const ResolvedTerm &t : rs->termPool) {
            wholeShifted = wholeShifted || (t.whole() && t.shift > 0);
            rightShift = rightShift || t.shift < 0;
        }
        std::string fault;
        EXPECT_EQ(observe(rs, "vm", 50, fault),
                  observe(rs, "interp", 50, fault))
            << text;
        // The family keeps every select, function and address in range,
        // so each run covers all 50 cycles.
        EXPECT_EQ(fault, "") << text;
    }
    const std::set<int> all = {1, 2, 3, 4, 5};
    for (const auto &[op, pos] :
         std::vector<std::pair<Op, int>>{{Op::AluGen, 0},
                                         {Op::AluGen, 1},
                                         {Op::AluGen, 2},
                                         {Op::SelCase, 0},
                                         {Op::SelCase, 1},
                                         {Op::Latch, 0},
                                         {Op::Latch, 1},
                                         {Op::MemGen, 0}}) {
        std::set<int> seen = lengths[{op, pos}];
        seen.erase(0);
        EXPECT_TRUE(std::includes(seen.begin(), seen.end(), all.begin(),
                                  all.end()))
            << opName(op) << " span " << pos;
    }
    EXPECT_TRUE(wholeShifted);
    EXPECT_TRUE(rightShift);
}

} // namespace
} // namespace asim

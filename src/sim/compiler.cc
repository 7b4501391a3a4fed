#include "sim/compiler.hh"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "analysis/depgraph.hh"
#include "lang/alu_ops.hh"
#include "sim/optimizer.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

namespace {

/** Which ALU operands a given constant function actually reads —
 *  mirrors the thesis' inline expansions, which only emit the
 *  expressions they need. */
void
aluOperandNeeds(int32_t funct, bool &needL, bool &needR)
{
    switch (funct) {
      case kAluZero:
      case kAluUnused:
        needL = needR = false;
        break;
      case kAluRight:
        needL = false;
        needR = true;
        break;
      case kAluLeft:
      case kAluNot:
        needL = true;
        needR = false;
        break;
      default:
        needL = needR = true;
        break;
    }
}

/** Direct opcode for a constant ALU function that does not fold (see
 *  aluFolds: zero and unused always do); AluConst for the ones that
 *  keep the generic handler (Shl depends on AluSemantics). */
Op
aluDirectOp(int32_t funct)
{
    switch (funct) {
      case kAluRight:
        return Op::AluRight;
      case kAluLeft:
        return Op::AluLeft;
      case kAluNot:
        return Op::AluNot;
      case kAluAdd:
        return Op::AluAdd;
      case kAluSub:
        return Op::AluSub;
      case kAluMul:
        return Op::AluMul;
      case kAluAnd:
        return Op::AluAnd;
      case kAluOr:
        return Op::AluOr;
      case kAluXor:
        return Op::AluXor;
      case kAluEq:
        return Op::AluEq;
      case kAluLt:
        return Op::AluLt;
      default:
        return Op::AluConst;
    }
}

/** True when a constant-function ALU folds to a single AluFold: every
 *  operand its function reads is constant (Shl excepted: its thesis
 *  semantics are the run-time AluSemantics setting). */
bool
aluFolds(const CombComp &c)
{
    bool needL = true, needR = true;
    aluOperandNeeds(c.functValue, needL, needR);
    return c.functValue != kAluShl && (!needL || c.left.isConstant()) &&
           (!needR || c.right.isConstant());
}

/** True when every case of a selector is a constant. */
bool
casesConstant(const CombComp &c)
{
    return std::all_of(c.cases.begin(), c.cases.end(),
                       [](const ResolvedExpr &e) { return e.isConstant(); });
}

class Compiler
{
  public:
    Compiler(const ResolvedSpec &rs, bool tracingPossible)
        : rs_(rs), tracing_(tracingPossible)
    {}

    Program
    run()
    {
        // Until the first component that may fault, every comb value
        // the cycle computes is written before any fault can surface:
        // the link stage moves the folds there out of the cycle.
        bool barrierSeen = false;
        for (int32_t i : combSchedule()) {
            const CombComp &c = rs_.comb[i];
            if (!barrierSeen && mayFault(c)) {
                barrierSeen = true;
                prog_.firstBarrier =
                    static_cast<uint32_t>(prog_.comb.size());
            }
            if (c.kind == CompKind::Alu)
                compileAlu(c);
            else
                compileSelector(c);
        }
        if (!barrierSeen)
            prog_.firstBarrier = static_cast<uint32_t>(prog_.comb.size());
        compileMemories();
        return std::move(prog_);
    }

  private:
    /** The facts that fix a component's emitted opcode sequence,
     *  mirroring compileAlu/compileSelector: its kind, its constant
     *  function value (or a dynamic function's shape), for every
     *  operand, select or case expression the code reads whether it
     *  is constant, whether it has a constant part, and each term's
     *  bank, and for a descriptor selector its K. */
    void
    shapeKey(const CombComp &c, std::string &key) const
    {
        key.assign(1, c.kind == CompKind::Alu ? 'a' : 's');
        auto add = [&key](const ResolvedExpr &e) {
            key += e.isConstant() ? 'c' : e.constTotal != 0 ? 'k' : 'f';
            for (const auto &t : e.terms)
                key += t.bank == ResolvedTerm::Bank::Var ? 'v' : 't';
        };
        if (c.kind == CompKind::Selector) {
            add(c.select);
            if (casesConstant(c)) {
                key += '#'; // a table lookup, whatever the cases
                return;
            }
            // K, then each case's descriptor pattern: whether it has
            // a bias and a field, and each term's bank.
            key += std::to_string(caseTerms(c));
            for (const auto &e : c.cases)
                add(e);
            return;
        }
        if (!c.functConst) {
            add(c.funct);
            add(c.left);
            add(c.right);
            return;
        }
        if (aluFolds(c)) {
            key = "=";
            return;
        }
        bool needL = true, needR = true;
        aluOperandNeeds(c.functValue, needL, needR);
        key += std::to_string(c.functValue);
        if (needL)
            add(c.left);
        if (needR)
            add(c.right);
    }

    /** True when evaluating `c` can raise a SimError: a selector whose
     *  select value can reach past its cases, or an ALU whose function
     *  can leave 0..13. */
    static bool
    mayFault(const CombComp &c)
    {
        if (c.kind == CompKind::Alu)
            return !exprBelow(c.funct, kAluFunctionCount);
        return !exprBelow(c.select,
                          static_cast<int64_t>(c.cases.size()));
    }

    /**
     * The comb phase's emission order: by dependency level, and
     * within a level by shape key (stable in `rs.comb` order), so the
     * threaded dispatch meets long runs of one opcode sequence, and
     * neighbouring runs share a prefix, instead of the resolver's
     * order. A component that may fault is a barrier nothing moves
     * across: everything `rs.comb` puts before it still runs before
     * it, so the fault text, the partial-cycle state and the
     * statistics at a fault are the interpreter's.
     */
    std::vector<int32_t>
    combSchedule()
    {
        const auto n = static_cast<int32_t>(rs_.comb.size());
        const std::vector<int32_t> level = combLevels(rs_);

        // Shape key -> its rank in key order, numbered once all are in.
        std::map<std::string, int32_t> rank;
        std::vector<std::map<std::string, int32_t>::iterator> shape(n);
        std::vector<int32_t> segment(n);
        std::string key;
        int32_t seg = 0;
        for (int32_t i = 0; i < n; ++i) {
            const CombComp &c = rs_.comb[i];
            shapeKey(c, key);
            shape[i] = rank.try_emplace(key, 0).first;
            // A barrier gets a segment of its own.
            const bool barrier = mayFault(c);
            seg += barrier;
            segment[i] = seg;
            seg += barrier;
            prog_.opt.levels = std::max(
                prog_.opt.levels, static_cast<uint32_t>(level[i]) + 1);
        }
        int32_t next = 0;
        for (auto &kv : rank)
            kv.second = next++;

        // The trailing index keeps equal keys in rs.comb order.
        std::vector<std::array<int32_t, 4>> sorted(n);
        for (int32_t i = 0; i < n; ++i)
            sorted[i] = {segment[i], level[i], shape[i]->second, i};
        std::sort(sorted.begin(), sorted.end());
        std::vector<int32_t> order(n);
        for (int32_t i = 0; i < n; ++i) {
            order[i] = sorted[i][3];
            if (i == 0 || sorted[i][2] != sorted[i - 1][2])
                ++prog_.opt.shapeRuns;
        }
        return order;
    }

    /** Emit code evaluating `e` into scratch register `reg`. */
    void
    compileExpr(std::vector<Instr> &code, const ResolvedExpr &e,
                uint8_t reg)
    {
        if (e.isConstant()) {
            code.push_back({Op::SetC, reg, 0, e.constTotal, 0, 0});
            return;
        }
        bool first = true;
        if (e.constTotal != 0) {
            code.push_back({Op::SetC, reg, 0, e.constTotal, 0, 0});
            first = false;
        }
        for (const auto &t : e.terms) {
            Op op;
            if (t.bank == ResolvedTerm::Bank::Var)
                op = first ? Op::LoadVar : Op::AccVar;
            else
                op = first ? Op::LoadTemp : Op::AccTemp;
            first = false;
            code.push_back({op, reg, static_cast<uint16_t>(t.slot),
                            t.mask, t.shift, 0});
        }
    }

    /** True if `e` is a pure single-field expression (one term, no
     *  constant part) — fusable with its destination. */
    static bool
    singleField(const ResolvedExpr &e)
    {
        return e.terms.size() == 1 && e.constTotal == 0;
    }

    /** True when some case of a selector reads a memory temp. */
    static bool
    readsTemp(const CombComp &c)
    {
        for (const auto &e : c.cases) {
            for (const auto &t : e.terms) {
                if (t.bank != ResolvedTerm::Bank::Var)
                    return true;
            }
        }
        return false;
    }

    /** K of a descriptor selector: its largest case term count (at
     *  least 1, so a constant case still has a word for its bias). */
    static int32_t
    caseTerms(const CombComp &c)
    {
        size_t k = 1;
        for (const auto &e : c.cases)
            k = std::max(k, e.terms.size());
        return static_cast<int32_t>(k);
    }

    /** Emit a latch (`mems[m].adr/opn = e`) with the same fusions. */
    void
    compileLatch(std::vector<Instr> &code, const ResolvedExpr &e,
                 uint16_t mem, bool isAdr)
    {
        if (e.isConstant()) {
            code.push_back({isAdr ? Op::MemAdrC : Op::MemOpnC, 0, mem,
                            e.constTotal, 0, 0});
            return;
        }
        if (singleField(e)) {
            const ResolvedTerm &t = e.terms[0];
            Op op;
            if (t.bank == ResolvedTerm::Bank::Var)
                op = isAdr ? Op::MemAdrFVar : Op::MemOpnFVar;
            else
                op = isAdr ? Op::MemAdrFTemp : Op::MemOpnFTemp;
            code.push_back({op, 0, mem, t.mask, t.shift, t.slot});
            return;
        }
        compileExpr(code, e, 0);
        code.push_back(
            {isAdr ? Op::MemAdr : Op::MemOpn, 0, mem, 0, 0, 0});
    }

    void
    compileAlu(const CombComp &c)
    {
        auto &code = prog_.comb;
        const auto slot = static_cast<uint16_t>(c.slot);

        if (c.functConst) {
            if (aluFolds(c)) {
                // dologic ignores the operands the function does not
                // read, constant or not.
                const int32_t v = dologic(c.functValue, c.left.constTotal,
                                          c.right.constTotal);
                code.push_back({Op::AluFold, 0, slot, v, 0, 0});
                return;
            }

            bool needL = true, needR = true;
            aluOperandNeeds(c.functValue, needL, needR);
            if (needL)
                compileExpr(code, c.left, 1);
            if (needR)
                compileExpr(code, c.right, 2);
            Op direct = aluDirectOp(c.functValue);
            code.push_back({direct, 0, slot,
                            direct == Op::AluConst ? c.functValue : 0,
                            0, 0});
            return;
        }

        compileExpr(code, c.funct, 0);
        compileExpr(code, c.left, 1);
        compileExpr(code, c.right, 2);
        code.push_back({Op::AluGen, 0, slot, 0, 0, 0});
    }

    void
    compileSelector(const CombComp &c)
    {
        auto &code = prog_.comb;
        const auto slot = static_cast<uint16_t>(c.slot);

        prog_.selInfos.push_back(
            {c.name, static_cast<int32_t>(c.cases.size())});
        const auto selIdx =
            static_cast<int32_t>(prog_.selInfos.size() - 1);
        const auto count = static_cast<int32_t>(c.cases.size());

        // Microcode-ROM pattern: all cases constant -> table lookup.
        if (casesConstant(c)) {
            const auto base =
                static_cast<int32_t>(prog_.constTable.size());
            for (const auto &e : c.cases)
                prog_.constTable.push_back(e.constTotal);
            compileExpr(code, c.select, 0);
            code.push_back(
                {Op::SelTable, 0, slot, base, count, selIdx});
            return;
        }

        // Everything else: one descriptor-table dispatch, K words per
        // case, each `bias + field` (docs/INTERNALS.md).
        const int32_t k = caseTerms(c);
        Instr op = {Op::SelStoreK, kSelFromS0, slot, k, count, selIdx};
        Instr field = {Op::Ext, 0, 0, 0, 0, 0};
        if (singleField(c.select)) {
            const ResolvedTerm &t = c.select.terms[0];
            const bool var = t.bank == ResolvedTerm::Bank::Var;
            field.a = t.mask;
            field.b = t.shift;
            field.c = t.slot;
            op.reg = var ? kSelFromVar : kSelFromTemp;
            if (k == 1) {
                op.op = var ? Op::SelStoreV : Op::SelStoreT;
                op.reg = !readsTemp(c);
                op.a = 0;
            }
        } else {
            compileExpr(code, c.select, 0);
        }
        code.push_back(op);
        code.push_back(field);
        for (const auto &e : c.cases) {
            const size_t first = code.size();
            for (const auto &t : e.terms) {
                const bool var = t.bank == ResolvedTerm::Bank::Var;
                code.push_back({Op::Ext, static_cast<uint8_t>(!var),
                                static_cast<uint16_t>(t.slot), t.mask,
                                t.shift, 0});
            }
            // Zero-mask padding reads vars[0], which exists: this
            // selector's own slot is a var.
            code.resize(first + k, {Op::Ext, 0, 0, 0, 0, 0});
            code[first].c = e.constTotal;
        }
    }

    void
    compileMemories()
    {
        // Latch phase: address and operation of every memory.
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint16_t>(m.index);
            compileLatch(prog_.latch, m.addr, idx, true);
            compileLatch(prog_.latch, m.opn, idx, false);
        }

        // Update phase, declaration order.
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint16_t>(m.index);
            prog_.memInfos.push_back({m.name});

            uint8_t flags = 0;
            if (tracing_ && m.traceWrites != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceW;
            if (tracing_ && m.traceReads != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceR;

            if (m.opnConst) {
                switch (land(m.opnValue, 3)) {
                  case mem_op::kRead:
                    prog_.update.push_back(
                        {Op::MemRead, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kWrite:
                    compileExpr(prog_.update, m.data, 1);
                    prog_.update.push_back(
                        {Op::MemWrite, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kInput:
                    prog_.update.push_back(
                        {Op::MemInput, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kOutput:
                    compileExpr(prog_.update, m.data, 1);
                    prog_.update.push_back(
                        {Op::MemOutput, flags, idx, 0, 0, 0});
                    break;
                }
            } else {
                const size_t preAt = prog_.update.size();
                prog_.update.push_back(
                    {Op::MemGenPre, flags, idx, 0, 0, 0});
                compileExpr(prog_.update, m.data, 1);
                prog_.update.push_back(
                    {Op::MemGenData, flags, idx, 0, 0, 0});
                prog_.update[preAt].a =
                    static_cast<int32_t>(prog_.update.size());
            }
        }
    }

    const ResolvedSpec &rs_;
    bool tracing_;
    Program prog_;
};

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::SetC: return "setc";
      case Op::LoadVar: return "ldv";
      case Op::LoadTemp: return "ldt";
      case Op::AccVar: return "accv";
      case Op::AccTemp: return "acct";
      case Op::AluGen: return "alu.gen";
      case Op::AluConst: return "alu.const";
      case Op::AluRight: return "alu.right";
      case Op::AluLeft: return "alu.left";
      case Op::AluNot: return "alu.not";
      case Op::AluAdd: return "alu.add";
      case Op::AluSub: return "alu.sub";
      case Op::AluMul: return "alu.mul";
      case Op::AluAnd: return "alu.and";
      case Op::AluOr: return "alu.or";
      case Op::AluXor: return "alu.xor";
      case Op::AluEq: return "alu.eq";
      case Op::AluLt: return "alu.lt";
      case Op::AluFold: return "alu.fold";
      case Op::SelTable: return "seltab";
      case Op::MemAdr: return "madr";
      case Op::MemOpn: return "mopn";
      case Op::MemAdrC: return "madrc";
      case Op::MemOpnC: return "mopnc";
      case Op::MemAdrFVar: return "madrfv";
      case Op::MemAdrFTemp: return "madrft";
      case Op::MemOpnFVar: return "mopnfv";
      case Op::MemOpnFTemp: return "mopnft";
      case Op::MemRead: return "mem.rd";
      case Op::MemWrite: return "mem.wr";
      case Op::MemInput: return "mem.in";
      case Op::MemOutput: return "mem.out";
      case Op::MemGenPre: return "mem.pre";
      case Op::MemGenData: return "mem.fin";
      case Op::TraceCycle: return "trace.cycle";
      case Op::EndCycle: return "end.cycle";
      case Op::Nop: return "nop";
      case Op::Ext: return "ext";
      case Op::LoadPairCC: return "ldp.cc";
      case Op::LoadPairCV: return "ldp.cv";
      case Op::LoadPairCT: return "ldp.ct";
      case Op::LoadPairVC: return "ldp.vc";
      case Op::LoadPairVV: return "ldp.vv";
      case Op::LoadPairVT: return "ldp.vt";
      case Op::LoadPairTC: return "ldp.tc";
      case Op::LoadPairTV: return "ldp.tv";
      case Op::LoadPairTT: return "ldp.tt";
      case Op::LoadAccCV: return "lda.cv";
      case Op::LoadAccCT: return "lda.ct";
      case Op::LoadAccVV: return "lda.vv";
      case Op::LoadAccVT: return "lda.vt";
      case Op::LoadAccTV: return "lda.tv";
      case Op::LoadAccTT: return "lda.tt";
      case Op::MemLatchCC: return "mlatch.cc";
      case Op::MemLatchVC: return "mlatch.vc";
      case Op::MemLatchTC: return "mlatch.tc";
      case Op::MemLatchVV: return "mlatch.vv";
      case Op::MemWriteC: return "mem.wrc";
      case Op::MemWriteV: return "mem.wrv";
      case Op::MemWriteT: return "mem.wrt";
      case Op::MemOutputC: return "mem.outc";
      case Op::MemOutputV: return "mem.outv";
      case Op::MemOutputT: return "mem.outt";
      case Op::SelTableV: return "seltab.v";
      case Op::SelTableT: return "seltab.t";
      case Op::MemLatchCV: return "mlatch.cv";
      case Op::MemLatchCT: return "mlatch.ct";
      case Op::MemLatchVT: return "mlatch.vt";
      case Op::MemLatchTV: return "mlatch.tv";
      case Op::MemLatchTT: return "mlatch.tt";
      case Op::MemGenDataC: return "mem.finc";
      case Op::MemGenDataV: return "mem.finv";
      case Op::MemGenDataT: return "mem.fint";
#define ASIM_ALU_FUSED_NAME(OPNAME, COMBO, L, R, V)                    \
      case Op::AluF##OPNAME##COMBO:                                    \
        return "aluf." #OPNAME "." #COMBO;
      ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_NAME)
#undef ASIM_ALU_FUSED_NAME
      case Op::SelStoreV: return "selst.v";
      case Op::SelStoreT: return "selst.t";
      case Op::SelStoreK: return "selst.k";
      case Op::TraceLatchRun: return "trace.latchrun";
      case Op::AluGenF: return "aluf.gen";
      case Op::MemGenC: return "mem.genc";
      case Op::MemGenV: return "mem.genv";
      case Op::MemGenT: return "mem.gent";
    }
    return "?";
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    auto dump = [&](const char *title, const std::vector<Instr> &code) {
        os << title << ":\n";
        for (size_t i = 0; i < code.size(); ++i) {
            const Instr &in = code[i];
            os << "  " << i << ": " << opName(in.op) << " r"
               << int(in.reg) << " #" << in.idx << " a=" << in.a
               << " b=" << in.b << " c=" << in.c << "\n";
        }
    };
    dump("comb", comb);
    dump("latch", latch);
    dump("update", update);
    dump("hoisted", hoisted);
    dump("cycle (fused)", cycle);
    os << "constTable: " << constTable.size() << " entries\n";
    os << "opt: linked=" << opt.linked << " cycle=" << cycle.size()
       << " fused=" << opt.fused << " deadStores=" << opt.deadStores
       << " checksElided=" << opt.checksElided
       << " levels=" << opt.levels << " shapeRuns=" << opt.shapeRuns
       << " hoisted=" << opt.hoisted << "\n";
    return os.str();
}

Program
compileProgram(const ResolvedSpec &rs, const CompilerOptions &,
               bool tracingPossible)
{
    // Instr::idx numbers var slots and memories in 16 bits.
    constexpr size_t kMaxSlots = size_t{1} << 16;
    const size_t slots = std::max(static_cast<size_t>(rs.numVarSlots),
                                  rs.mems.size());
    if (slots > kMaxSlots) {
        throw SimError("Error. The vm engine numbers at most " +
                       std::to_string(kMaxSlots) +
                       " slots; this specification needs " +
                       std::to_string(slots) + ".");
    }
    Program prog = Compiler(rs, tracingPossible).run();
    linkAndOptimize(prog, rs);
    return prog;
}

} // namespace asim

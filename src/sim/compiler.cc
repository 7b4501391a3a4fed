#include "sim/compiler.hh"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "analysis/depgraph.hh"
#include "lang/alu_ops.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

namespace {

/**
 * True when every value of `e` provably lies in [0, limit): the
 * constant part is non-negative, every term is a masked (bounded,
 * non-negative) field, and the running maximum never reaches 2^31
 * (so the wrapping adds cannot wrap) nor `limit`. Discharges memory
 * bounds checks and marks the comb components that cannot fault.
 */
bool
exprBelow(const ResolvedSpec &rs, const ResolvedExpr &e, int64_t limit)
{
    if (e.constTotal < 0)
        return false;
    int64_t max = e.constTotal;
    for (const ResolvedTerm &t : rs.terms(e)) {
        if (t.mask < 0)
            return false; // whole-word term: value unbounded
        const int64_t m = static_cast<int64_t>(t.mask);
        const int64_t termMax =
            t.shift >= 0 ? m << t.shift : m >> -t.shift;
        max += termMax;
        if (max >= (int64_t{1} << 31))
            return false;
    }
    return max < limit;
}

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

/** Position of a direct binary ALU op in the fused-ALU op group, or
 *  -1. Order matches ASIM_ALU_FUSED_ALL in sim/bytecode.hh. */
int
aluDirectIndex(Op op)
{
    switch (op) {
      case Op::AluAdd: return 0;
      case Op::AluSub: return 1;
      case Op::AluMul: return 2;
      case Op::AluAnd: return 3;
      case Op::AluOr: return 4;
      case Op::AluXor: return 5;
      case Op::AluEq: return 6;
      case Op::AluLt: return 7;
      default: return -1;
    }
}

/** True when a constant-function ALU folds to a single AluFold: every
 *  operand its function reads is constant (Shl excepted: its thesis
 *  semantics are the run-time AluSemantics setting). */
bool
aluFolds(const ResolvedSpec &rs, const CombComp &c)
{
    bool needL = true, needR = true;
    aluOperandNeeds(c.functValue, needL, needR);
    return c.functValue != kAluShl && (!needL || rs.left(c).isConstant()) &&
           (!needR || rs.right(c).isConstant());
}

/** True when every case of a selector is a constant. */
bool
casesConstant(const ResolvedSpec &rs, const CombComp &c)
{
    const auto cases = rs.cases(c);
    return std::all_of(cases.begin(), cases.end(),
                       [](const ResolvedExpr &e) { return e.isConstant(); });
}

/** True if `e` is a pure single-field expression (one term, no
 *  constant part). */
bool
singleField(const ResolvedExpr &e)
{
    return e.count == 1 && e.constTotal == 0;
}

/** True if `e` loads in one word: a constant or a single field, the
 *  operand shapes every superinstruction carries inline. */
bool
oneWord(const ResolvedExpr &e)
{
    return e.isConstant() || singleField(e);
}

/** The one-word load of `e` into s[reg] (oneWord(e) must hold):
 *  SetC (constant in a) or LoadVar (idx = slot, a = mask, b = shift).
 *  A superinstruction takes these operands inline. */
Instr
simpleLoad(const ResolvedSpec &rs, const ResolvedExpr &e, uint8_t reg)
{
    if (e.isConstant())
        return {Op::SetC, reg, 0, e.constTotal, 0, 0};
    const ResolvedTerm &t = rs.termPool[e.first];
    return {Op::LoadVar, reg, static_cast<uint16_t>(t.slot), t.mask,
            t.shift, 0};
}

/** Kind of a load word: 0 = constant (SetC), 1 = field (LoadVar),
 *  -1 = an accumulate. The C/V rows of the superinstruction tables
 *  below index by it. */
int
kind(const Instr &load)
{
    switch (load.op) {
      case Op::SetC: return 0;
      case Op::LoadVar: return 1;
      default: return -1;
    }
}

/** A word whose destination is `dst` and whose one-word operand rides
 *  inline: constant in a, or field a = mask, b = shift, c = slot. */
Instr
inlineOperand(Op op, uint8_t reg, uint16_t dst, const Instr &load)
{
    return {op, reg, dst, load.a, load.b, load.idx};
}

/** The load word `load` as an extension word of its consumer. */
Instr
asExt(Instr load)
{
    load.op = Op::Ext;
    return load;
}

// Opcodes by operand kind: C, V as kind() numbers them.
constexpr Op kLoadPair[2][2] = {
    {Op::LoadPairCC, Op::LoadPairCV},
    {Op::LoadPairVC, Op::LoadPairVV},
};
// Second side always a field (an AccVar source).
constexpr Op kLoadAcc[2] = {Op::LoadAccCV, Op::LoadAccVV};
constexpr Op kMemLatch[2][2] = {
    {Op::MemLatchCC, Op::MemLatchCV},
    {Op::MemLatchVC, Op::MemLatchVV},
};
constexpr Op kMemAdr[2] = {Op::MemAdrC, Op::MemAdrFVar};
constexpr Op kMemOpn[2] = {Op::MemOpnC, Op::MemOpnFVar};
constexpr Op kMemWrite[2] = {Op::MemWriteC, Op::MemWriteV};
constexpr Op kMemOutput[2] = {Op::MemOutputC, Op::MemOutputV};
constexpr Op kMemGen[2] = {Op::MemGenC, Op::MemGenV};
// Position of an operand combo in a fused-ALU op group (order of
// ASIM_ALU_FUSED_COMBOS); const/const folds, so it has none.
constexpr int kAluCombo[2][2] = {{-1, 2}, {1, 0}};

/**
 * The one emit stage: lowers a ResolvedSpec straight to the stream
 * the VM executes. Each component picks its superinstruction from the
 * shapes of its operand expressions, so a load a consumer absorbs is
 * never emitted and nothing is rewritten afterwards.
 */
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
        // the folds there go to `hoisted`, out of the cycle.
        bool barrierSeen = false;
        for (int32_t i : combSchedule()) {
            const CombComp &c = rs_.comb[i];
            barrierSeen = barrierSeen || mayFault(c);
            if (c.kind == CompKind::Alu)
                compileAlu(c, !barrierSeen);
            else
                compileSelector(c);
        }
        prog_.opt.hoisted = static_cast<uint32_t>(prog_.hoisted.size());
        compileLatches();
        compileUpdates();
        code_.push_back({Op::EndCycle, 0, 0, 0, 0, 0});
        return std::move(prog_);
    }

  private:
    /** The facts that fix a component's emitted opcode sequence,
     *  mirroring compileAlu/compileSelector: its kind, its constant
     *  function value (or a dynamic function's shape), for every
     *  operand, select or case expression the code reads whether it
     *  is constant, whether it has a constant part, and its term
     *  count, and for a descriptor selector its K. */
    void
    shapeKey(const CombComp &c, std::string &key) const
    {
        key.assign(1, c.kind == CompKind::Alu ? 'a' : 's');
        auto add = [&](const ResolvedExpr &e) {
            key += e.isConstant() ? 'c' : e.constTotal != 0 ? 'k' : 'f';
            key.append(e.count, 'v');
        };
        if (c.kind == CompKind::Selector) {
            add(rs_.select(c));
            if (casesConstant(rs_, c)) {
                key += '#'; // a table lookup, whatever the cases
                return;
            }
            // K, then each case's descriptor pattern: whether it has
            // a bias, and its term count.
            key += std::to_string(caseTerms(c));
            for (const ResolvedExpr &e : rs_.cases(c))
                add(e);
            return;
        }
        if (!c.functConst) {
            add(rs_.funct(c));
            add(rs_.left(c));
            add(rs_.right(c));
            return;
        }
        if (aluFolds(rs_, c)) {
            key = "=";
            return;
        }
        bool needL = true, needR = true;
        aluOperandNeeds(c.functValue, needL, needR);
        key += std::to_string(c.functValue);
        if (needL)
            add(rs_.left(c));
        if (needR)
            add(rs_.right(c));
    }

    /** True when evaluating `c` can raise a SimError: a selector whose
     *  select value can reach past its cases, or an ALU whose function
     *  can leave 0..13. */
    bool
    mayFault(const CombComp &c) const
    {
        if (c.kind == CompKind::Alu)
            return !exprBelow(rs_, rs_.funct(c), kAluFunctionCount);
        return !exprBelow(rs_, rs_.select(c),
                          static_cast<int64_t>(rs_.cases(c).size()));
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

    /** Queue the canonical loads evaluating `e` into s[reg]: a SetC
     *  of the constant part when there is one, then one LoadVar, or
     *  AccVar after the first word, per term. */
    void
    queueLoads(const ResolvedExpr &e, uint8_t reg)
    {
        bool first = true;
        if (e.isConstant() || e.constTotal != 0) {
            loads_.push_back({Op::SetC, reg, 0, e.constTotal, 0, 0});
            first = false;
        }
        for (const ResolvedTerm &t : rs_.terms(e)) {
            const Op op = first ? Op::LoadVar : Op::AccVar;
            first = false;
            loads_.push_back(
                {op, reg, static_cast<uint16_t>(t.slot), t.mask, t.shift, 0});
        }
    }

    /** Emit the queued loads, left to right, each simple load fused
     *  with the load after it: the first load of another expression,
     *  in another register (LoadPair), or an accumulate into its own
     *  register (LoadAcc). The second load stays as the extension
     *  word. */
    void
    flushLoads()
    {
        for (size_t i = 0; i < loads_.size(); ++i) {
            Instr x = loads_[i];
            const int kx = kind(x);
            if (kx < 0 || i + 1 == loads_.size()) {
                code_.push_back(x);
                continue;
            }
            const Instr &y = loads_[++i];
            const int ky = kind(y);
            x.op = ky >= 0 ? kLoadPair[kx][ky] : kLoadAcc[kx];
            code_.push_back(x);
            code_.push_back(asExt(y));
            ++prog_.opt.fused;
        }
        loads_.clear();
    }

    /** K of a descriptor selector: its largest case term count (at
     *  least 1, so a constant case still has a word for its bias). */
    int32_t
    caseTerms(const CombComp &c) const
    {
        uint32_t k = 1;
        for (const ResolvedExpr &e : rs_.cases(c))
            k = std::max(k, e.count);
        return static_cast<int32_t>(k);
    }

    void
    compileAlu(const CombComp &c, bool hoist)
    {
        const auto slot = static_cast<uint16_t>(c.slot);
        const ResolvedExpr &left = rs_.left(c);
        const ResolvedExpr &right = rs_.right(c);

        if (c.functConst) {
            if (aluFolds(rs_, c)) {
                // dologic ignores the operands the function does not
                // read, constant or not.
                const int32_t v = dologic(c.functValue, left.constTotal,
                                          right.constTotal);
                (hoist ? prog_.hoisted : code_)
                    .push_back({Op::AluFold, 0, slot, v, 0, 0});
                return;
            }

            // Both operands one word: the whole expression in one
            // dispatch, left inline, right in the extension word.
            const Op direct = aluDirectOp(c.functValue);
            const int op8 = aluDirectIndex(direct);
            if (op8 >= 0 && oneWord(left) && oneWord(right)) {
                const Instr l = simpleLoad(rs_, left, 1);
                const Instr r = simpleLoad(rs_, right, 2);
                const int combo = kAluCombo[kind(l)][kind(r)];
                code_.push_back(inlineOperand(
                    static_cast<Op>(static_cast<int>(Op::AluFAddVV) +
                                    op8 * 3 + combo),
                    0, slot, l));
                code_.push_back(inlineOperand(Op::Ext, 0, 0, r));
                ++prog_.opt.fused;
                return;
            }

            bool needL = true, needR = true;
            aluOperandNeeds(c.functValue, needL, needR);
            if (needL)
                queueLoads(left, 1);
            if (needR)
                queueLoads(right, 2);
            flushLoads();
            code_.push_back({direct, 0, slot,
                             direct == Op::AluConst ? c.functValue : 0,
                             0, 0});
            return;
        }

        // All three sides one word: one dologic dispatch, the loads
        // kept as three extension words.
        const ResolvedExpr &funct = rs_.funct(c);
        if (oneWord(funct) && oneWord(left) && oneWord(right)) {
            const Instr f = simpleLoad(rs_, funct, 0);
            const Instr l = simpleLoad(rs_, left, 1);
            const Instr r = simpleLoad(rs_, right, 2);
            code_.push_back({Op::AluGenF,
                             static_cast<uint8_t>(kind(f) | kind(l) << 1 |
                                                  kind(r) << 2),
                             slot, 0, 0, 0});
            for (const Instr &w : {f, l, r})
                code_.push_back(asExt(w));
            ++prog_.opt.fused;
            return;
        }
        queueLoads(funct, 0);
        queueLoads(left, 1);
        queueLoads(right, 2);
        flushLoads();
        code_.push_back({Op::AluGen, 0, slot, 0, 0, 0});
    }

    void
    compileSelector(const CombComp &c)
    {
        const auto slot = static_cast<uint16_t>(c.slot);
        const ResolvedExpr &select = rs_.select(c);
        const std::span<const ResolvedExpr> cases = rs_.cases(c);

        prog_.selInfos.push_back({std::string(rs_.name(c.name)),
                                  static_cast<int32_t>(cases.size())});
        const auto selIdx =
            static_cast<int32_t>(prog_.selInfos.size() - 1);
        const auto count = static_cast<int32_t>(cases.size());

        // Microcode-ROM pattern: all cases constant -> table lookup,
        // with a single-field select inline in an extension word.
        if (casesConstant(rs_, c)) {
            const auto base =
                static_cast<int32_t>(prog_.constTable.size());
            for (const ResolvedExpr &e : cases)
                prog_.constTable.push_back(e.constTotal);
            if (singleField(select)) {
                code_.push_back(
                    {Op::SelTableV, 0, slot, base, count, selIdx});
                code_.push_back(asExt(simpleLoad(rs_, select, 0)));
                ++prog_.opt.fused;
                return;
            }
            queueLoads(select, 0);
            flushLoads();
            code_.push_back({Op::SelTable, 0, slot, base, count, selIdx});
            return;
        }

        // Everything else: one descriptor-table dispatch, K words per
        // case, each `bias + field` (docs/INTERNALS.md).
        const int32_t k = caseTerms(c);
        Instr op = {Op::SelStoreK, kSelFromS0, slot, k, count, selIdx};
        Instr field = {Op::Ext, 0, 0, 0, 0, 0};
        if (singleField(select)) {
            field = inlineOperand(Op::Ext, 0, 0, simpleLoad(rs_, select, 0));
            op.reg = kSelFromField;
            if (k == 1) {
                op.op = Op::SelStoreV;
                op.a = 0;
            }
        } else {
            queueLoads(select, 0);
            flushLoads();
        }
        code_.push_back(op);
        code_.push_back(field);
        for (const ResolvedExpr &e : cases) {
            const size_t first = code_.size();
            for (const ResolvedTerm &t : rs_.terms(e)) {
                code_.push_back({Op::Ext, 0, static_cast<uint16_t>(t.slot),
                                 t.mask, t.shift, 0});
            }
            // Zero-mask padding reads vars[0], which exists: this
            // selector's own slot is a var.
            code_.resize(first + k, {Op::Ext, 0, 0, 0, 0, 0});
            code_[first].c = e.constTotal;
        }
    }

    /** Emit one latch (`mems[m].adr/opn = e`) on its own. */
    void
    compileLatch(const ResolvedExpr &e, uint16_t mem, bool isAdr)
    {
        if (oneWord(e)) {
            const Instr load = simpleLoad(rs_, e, 0);
            const Op op = (isAdr ? kMemAdr : kMemOpn)[kind(load)];
            code_.push_back(inlineOperand(op, 0, mem, load));
            return;
        }
        queueLoads(e, 0);
        flushLoads();
        code_.push_back({isAdr ? Op::MemAdr : Op::MemOpn, 0, mem, 0, 0, 0});
    }

    /**
     * The trace point and the latch phase. A memory whose address and
     * operation are both one word latches in one MemLatch dispatch
     * (the operation in the extension word, or in b when both are
     * constants). The leading run of such memories folds into the
     * trace point: TraceLatchRun interprets them inline.
     */
    void
    compileLatches()
    {
        const size_t trace = code_.size();
        code_.push_back({Op::TraceCycle, 0, 0, 0, 0, 0});
        size_t runEnd = 0;
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint16_t>(m.index);
            if (!oneWord(m.addr) || !oneWord(m.opn)) {
                if (runEnd == 0)
                    runEnd = code_.size();
                compileLatch(m.addr, idx, true);
                compileLatch(m.opn, idx, false);
                continue;
            }
            const Instr adr = simpleLoad(rs_, m.addr, 0);
            const Instr opn = simpleLoad(rs_, m.opn, 0);
            const Op op = kMemLatch[kind(adr)][kind(opn)];
            if (op == Op::MemLatchCC) {
                code_.push_back({op, 0, idx, adr.a, opn.a, 0});
            } else {
                code_.push_back(inlineOperand(op, 0, idx, adr));
                code_.push_back(inlineOperand(Op::Ext, 0, idx, opn));
            }
            ++prog_.opt.fused;
        }
        if (runEnd == 0)
            runEnd = code_.size();
        if (runEnd > trace + 1) {
            code_[trace] = {Op::TraceLatchRun, 0, 0, 0,
                            static_cast<int32_t>(runEnd - trace - 1), 0};
            ++prog_.opt.fused;
        }
    }

    /** The update phase, declaration order. A one-word data
     *  expression rides inline in the memory op. */
    void
    compileUpdates()
    {
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint16_t>(m.index);
            prog_.memInfos.push_back({std::string(rs_.name(m.name))});

            uint8_t flags = 0;
            if (tracing_ && m.traceWrites != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceW;
            if (tracing_ && m.traceReads != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceR;
            // The latch phase recomputes `adr` from the resolved
            // address expression every cycle before the update phase
            // runs, so a static bound holds for any machine state,
            // a restored snapshot included.
            uint8_t cells = flags;
            if (exprBelow(rs_, m.addr, m.size)) {
                cells |= kMemFlagNoCheck;
                ++prog_.opt.checksElided;
            }

            const bool inlineData = oneWord(m.data);
            const Instr data =
                inlineData ? simpleLoad(rs_, m.data, 1) : Instr{};
            const auto withData = [&](const Op (&fused)[2], Op plain,
                                      uint8_t reg) {
                if (inlineData) {
                    code_.push_back(
                        inlineOperand(fused[kind(data)], reg, idx, data));
                    ++prog_.opt.fused;
                    return;
                }
                queueLoads(m.data, 1);
                flushLoads();
                code_.push_back({plain, reg, idx, 0, 0, 0});
            };
            if (!m.opnConst) {
                if (inlineData) {
                    withData(kMemGen, Op::MemGenData, cells);
                    continue;
                }
                // Handles read and input, then skips the data
                // expression; write and output fall through to it.
                const size_t pre = code_.size();
                code_.push_back({Op::MemGenPre, cells, idx, 0, 0, 0});
                withData(kMemGen, Op::MemGenData, cells);
                code_[pre].a = static_cast<int32_t>(code_.size());
                continue;
            }
            switch (land(m.opnValue, 3)) {
              case mem_op::kRead:
                code_.push_back({Op::MemRead, cells, idx, 0, 0, 0});
                break;
              case mem_op::kWrite:
                withData(kMemWrite, Op::MemWrite, cells);
                break;
              case mem_op::kInput:
                code_.push_back({Op::MemInput, flags, idx, 0, 0, 0});
                break;
              case mem_op::kOutput:
                withData(kMemOutput, Op::MemOutput, flags);
                break;
            }
        }
    }

    const ResolvedSpec &rs_;
    bool tracing_;
    Program prog_;
    /** The stream being emitted, `prog_.cycle`. */
    std::vector<Instr> &code_ = prog_.cycle;
    /** Loads of the operands being emitted (flushLoads). */
    std::vector<Instr> loads_;
};

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::SetC: return "setc";
      case Op::LoadVar: return "ldv";
      case Op::AccVar: return "accv";
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
      case Op::MemOpnFVar: return "mopnfv";
      case Op::MemRead: return "mem.rd";
      case Op::MemWrite: return "mem.wr";
      case Op::MemInput: return "mem.in";
      case Op::MemOutput: return "mem.out";
      case Op::MemGenPre: return "mem.pre";
      case Op::MemGenData: return "mem.fin";
      case Op::TraceCycle: return "trace.cycle";
      case Op::EndCycle: return "end.cycle";
      case Op::Ext: return "ext";
      case Op::LoadPairCC: return "ldp.cc";
      case Op::LoadPairCV: return "ldp.cv";
      case Op::LoadPairVC: return "ldp.vc";
      case Op::LoadPairVV: return "ldp.vv";
      case Op::LoadAccCV: return "lda.cv";
      case Op::LoadAccVV: return "lda.vv";
      case Op::MemLatchCC: return "mlatch.cc";
      case Op::MemLatchVC: return "mlatch.vc";
      case Op::MemLatchVV: return "mlatch.vv";
      case Op::MemWriteC: return "mem.wrc";
      case Op::MemWriteV: return "mem.wrv";
      case Op::MemOutputC: return "mem.outc";
      case Op::MemOutputV: return "mem.outv";
      case Op::SelTableV: return "seltab.v";
      case Op::MemLatchCV: return "mlatch.cv";
#define ASIM_ALU_FUSED_NAME(OPNAME, COMBO, L, R, V)                    \
      case Op::AluF##OPNAME##COMBO:                                    \
        return "aluf." #OPNAME "." #COMBO;
      ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_NAME)
#undef ASIM_ALU_FUSED_NAME
      case Op::SelStoreV: return "selst.v";
      case Op::SelStoreK: return "selst.k";
      case Op::TraceLatchRun: return "trace.latchrun";
      case Op::AluGenF: return "aluf.gen";
      case Op::MemGenC: return "mem.genc";
      case Op::MemGenV: return "mem.genv";
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
    dump("hoisted", hoisted);
    dump("cycle", cycle);
    os << "constTable: " << constTable.size() << " entries\n";
    os << "opt: cycle=" << cycle.size() << " fused=" << opt.fused
       << " checksElided=" << opt.checksElided
       << " levels=" << opt.levels << " shapeRuns=" << opt.shapeRuns
       << " hoisted=" << opt.hoisted << "\n";
    return os.str();
}

bool
opHasExt(Op op)
{
    switch (op) {
      case Op::LoadPairCC:
      case Op::LoadPairCV:
      case Op::LoadPairVC:
      case Op::LoadPairVV:
      case Op::LoadAccCV:
      case Op::LoadAccVV:
      case Op::MemLatchVC:
      case Op::MemLatchVV:
      case Op::MemLatchCV:
#define ASIM_ALU_FUSED_EXT(OPNAME, COMBO, L, R, V)                     \
      case Op::AluF##OPNAME##COMBO:
      ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_EXT)
#undef ASIM_ALU_FUSED_EXT
      case Op::SelTableV:
      case Op::SelStoreV: // select field word + per-case descriptors
      case Op::SelStoreK:
      case Op::AluGenF: // three extension words
        return true;
      default:
        return false;
    }
}

Program
compileProgram(const ResolvedSpec &rs, const CompilerOptions &,
               bool tracingPossible)
{
    // Instr::idx numbers value slots (output latches included) in
    // 16 bits.
    constexpr size_t kMaxSlots = size_t{1} << 16;
    const size_t slots = static_cast<size_t>(rs.numVarSlots) + rs.mems.size();
    if (slots > kMaxSlots) {
        throw SimError("Error. The vm engine numbers at most " +
                       std::to_string(kMaxSlots) +
                       " slots; this specification needs " +
                       std::to_string(slots) + ".");
    }
    return Compiler(rs, tracingPossible).run();
}

} // namespace asim

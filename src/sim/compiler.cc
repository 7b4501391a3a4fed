#include "sim/compiler.hh"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>
#include <utility>

#include "analysis/depgraph.hh"
#include "lang/alu_ops.hh"
#include "sim/state.hh"
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

/** A term span a word reads: the terms of one expression, or of it
 *  and the next one summed (an ALU's left and right operands, which
 *  are adjacent; wrapping addition is associative), with their
 *  constants and `bias` on the first term. */
struct Span
{
    const ResolvedExpr *e = nullptr;
    int32_t bias = 0;
    bool withNext = false;

    std::span<const ResolvedExpr>
    exprs() const
    {
        return {e, withNext ? 2u : 1u};
    }

    /** One term per field, or one zero-mask term for a constant. */
    uint8_t
    length() const
    {
        uint32_t n = 0;
        for (const ResolvedExpr &x : exprs())
            n += x.count;
        return static_cast<uint8_t>(std::max<uint32_t>(n, 1));
    }
};

/** Append span `s` to `out`. A constant's zero-mask term reads `own`,
 *  the slot the reading word itself writes: its last value is a cycle
 *  old, so the term waits on no store of the cycle in progress. */
void
appendSpan(const ResolvedSpec &rs, const Span &s, uint32_t own,
           std::vector<VmTerm> &out)
{
    const size_t first = out.size();
    int32_t bias = s.bias;
    for (const ResolvedExpr &e : s.exprs()) {
        bias = wadd(bias, e.constTotal);
        for (const ResolvedTerm &t : rs.terms(e)) {
            VmTerm x;
            x.slot = static_cast<uint32_t>(t.slot);
            // A field's bits land inside the word whichever way it
            // shifts; a whole word shifted left loses its top bits
            // first.
            x.mask = t.whole() && t.shift > 0
                         ? static_cast<int32_t>(~uint32_t{0} >> t.shift)
                         : t.mask;
            x.rot = static_cast<uint32_t>(t.shift) & 31;
            out.push_back(x);
        }
    }
    if (out.size() == first) {
        VmTerm x;
        x.slot = own;
        out.push_back(x);
    }
    out[first].bias = bias;
}

/** Opcode of a constant ALU function that combines two spans, or
 *  AluConst for shift left, whose semantics are a run-time setting. */
Op
aluBinaryOp(int32_t funct)
{
    switch (funct) {
      case kAluSub: return Op::AluSub;
      case kAluMul: return Op::AluMul;
      case kAluAnd: return Op::AluAnd;
      case kAluOr: return Op::AluOr;
      case kAluXor: return Op::AluXor;
      case kAluEq: return Op::AluEq;
      case kAluLt: return Op::AluLt;
      default: return Op::AluConst;
    }
}

/** The spans a comb component's word reads, in cursor order, each
 *  kept as the place of its first expression among the component's
 *  own: 8 bytes a span, so a plan per component stays small. */
struct Operands
{
    struct Ref
    {
        uint8_t expr = 0;
        bool withNext = false;
        int32_t bias = 0;
    };
    std::array<Ref, 3> s{};
    uint8_t n = 0;

    void
    add(const ResolvedSpec &rs, const CombComp &c, const Span &span)
    {
        s[n++] = {static_cast<uint8_t>(span.e - rs.exprs(c).data()),
                  span.withNext, span.bias};
    }

    Span
    span(const ResolvedSpec &rs, const CombComp &c, int k) const
    {
        return {&rs.exprs(c)[s[k].expr], s[k].bias, s[k].withNext};
    }
};

/** The comb schedule's sort key: (segment, level), then shape, with
 *  the component's rs.comb index along. */
struct ScheduleKey
{
    uint64_t major = 0; ///< segment << 32 | level
    uint32_t shape = 0;
    uint32_t index = 0;
};

/**
 * Sort `keys`, given in index order, by (major, shape), keeping equal
 * keys in index order: an LSD radix sort over the twelve key bytes
 * that skips every byte all keys share. A layered design shares most
 * of them, so this is a few linear passes where a comparison sort
 * mispredicts a branch per comparison.
 */
void
sortSchedule(std::vector<ScheduleKey> &keys)
{
    constexpr int kBytes = 12;
    const auto byteOf = [](const ScheduleKey &k, int d) {
        return static_cast<uint8_t>(d < 4 ? k.shape >> (8 * d)
                                          : k.major >> (8 * (d - 4)));
    };
    std::array<std::array<uint32_t, 256>, kBytes> count{};
    for (const ScheduleKey &k : keys) {
        for (int d = 0; d < kBytes; ++d)
            ++count[d][byteOf(k, d)];
    }
    std::vector<ScheduleKey> out(keys.size());
    for (int d = 0; d < kBytes; ++d) {
        if (*std::max_element(count[d].begin(), count[d].end()) ==
            keys.size())
            continue;
        uint32_t sum = 0;
        for (uint32_t &c : count[d])
            sum += std::exchange(c, sum);
        for (const ScheduleKey &k : keys)
            out[count[d][byteOf(k, d)]++] = k;
        keys.swap(out);
    }
}

/** A comb component's word and spans, decided once, and whether it
 *  may fault. */
struct Planned
{
    Instr w;
    Operands ops;
    bool barrier = false;
};

/**
 * The one emit stage: lowers a ResolvedSpec straight to the stream
 * the VM executes, one op word per component and its operands as
 * term spans, so nothing is rewritten afterwards.
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
        const std::vector<uint32_t> schedule = combSchedule();
        reserve();
        // Until the first component that may fault, every comb value
        // the cycle computes is written before any fault can surface:
        // the folds there go to `hoisted`, out of the cycle.
        bool barrierSeen = false;
        for (uint32_t i : schedule) {
            barrierSeen = barrierSeen || plan_[i].barrier;
            compileComb(i, !barrierSeen);
        }
        prog_.opt.hoisted = static_cast<uint32_t>(prog_.hoisted.size());
        compileLatches();
        compileUpdates();
        code_.push_back({Op::EndCycle});
        // vms share no line of the arrays they read every cycle with
        // another vm's state (sim/state.hh).
        reserveSpareLine(prog_.cycle);
        reserveSpareLine(prog_.terms);
        reserveSpareLine(prog_.caseTerms);
        reserveSpareLine(prog_.latches);
        reserveSpareLine(prog_.constTable);
        return std::move(prog_);
    }

  private:
    /** The op word of comb component `c` without its table base, and
     *  the spans it reads. An ALU reads only the operands its constant
     *  function uses, as the thesis' inline expansions emit only the
     *  expressions they need. */
    Instr
    combWord(const CombComp &c, Operands &ops) const
    {
        Instr w;
        w.dst = static_cast<uint32_t>(c.slot);
        ops = {};
        const auto read = [&](const Span &s) {
            w.n[ops.n] = s.length();
            ops.add(rs_, c, s);
        };
        if (c.kind == CompKind::Selector) {
            w.b = static_cast<int32_t>(rs_.cases(c).size());
            read({&rs_.select(c)});
            if (casesConstant(rs_, c)) {
                w.op = Op::SelTable;
            } else {
                w.op = Op::SelCase;
                w.n[1] = caseTerms(c);
            }
            return w;
        }
        const ResolvedExpr &l = rs_.left(c);
        const ResolvedExpr &r = rs_.right(c);
        if (!c.functConst) {
            w.op = Op::AluGen;
            read({&rs_.funct(c)});
            read({&l});
            read({&r});
            return w;
        }
        if (aluFolds(rs_, c)) {
            // dologic ignores the operands the function does not
            // read, constant or not.
            w.op = Op::AluFold;
            w.a = dologic(c.functValue, l.constTotal, r.constTotal);
            return w;
        }
        w.op = Op::AluMov;
        switch (c.functValue) {
          case kAluRight:
            read({&r});
            break;
          case kAluLeft:
            read({&l});
            break;
          case kAluNot:
            w.op = Op::AluNot;
            read({&l});
            break;
          case kAluAdd:
            // l + r is one span of both operands' terms.
            read({&l, 0, true});
            break;
          case kAluSub:
            if (r.isConstant()) {
                read({&l, wsub(0, r.constTotal)});
                break;
            }
            [[fallthrough]];
          default:
            w.op = aluBinaryOp(c.functValue);
            if (w.op == Op::AluConst)
                w.a = c.functValue;
            read({&l});
            read({&r});
            break;
        }
        return w;
    }

    /** What fixes a component's dispatched sequence: its opcode and
     *  span lengths (a case table's K included). */
    static uint32_t
    shapeKey(const Instr &w)
    {
        return static_cast<uint32_t>(w.op) << 24 | uint32_t{w.n[0]} << 16 |
               uint32_t{w.n[1]} << 8 | w.n[2];
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
     * threaded dispatch meets long runs of one opcode and span shape,
     * and neighbouring runs share an opcode, instead of the resolver's
     * order. A component that may fault is a barrier nothing moves
     * across: everything `rs.comb` puts before it still runs before
     * it, so the fault text, the partial-cycle state and the
     * statistics at a fault are the interpreter's. Plans every
     * component's word on the way, once.
     */
    std::vector<uint32_t>
    combSchedule()
    {
        const size_t n = rs_.comb.size();
        const std::vector<int32_t> level = combLevels(rs_);
        plan_.reserve(n);
        std::vector<ScheduleKey> sorted;
        sorted.reserve(n);
        uint64_t seg = 0;
        for (size_t i = 0; i < n; ++i) {
            const CombComp &c = rs_.comb[i];
            Planned &p = plan_.emplace_back();
            p.w = combWord(c, p.ops);
            // A barrier gets a segment of its own.
            p.barrier = mayFault(c);
            seg += p.barrier;
            sorted.push_back({seg << 32 | static_cast<uint32_t>(level[i]),
                              shapeKey(p.w), static_cast<uint32_t>(i)});
            seg += p.barrier;
            prog_.opt.levels = std::max(
                prog_.opt.levels, static_cast<uint32_t>(level[i]) + 1);
        }
        sortSchedule(sorted);
        std::vector<uint32_t> order(n);
        for (size_t i = 0; i < n; ++i) {
            order[i] = sorted[i].index;
            if (i == 0 || sorted[i].shape != sorted[i - 1].shape)
                ++prog_.opt.shapeRuns;
        }
        return order;
    }

    /** Size every array of the program once, from the plans: the
     *  cycle loop's arrays with their spare line (sim/state.hh). */
    void
    reserve()
    {
        size_t folds = 0, terms = 0, cases = 0, consts = 0;
        for (const Planned &p : plan_) {
            if (p.w.op == Op::AluFold) {
                ++folds;
                continue;
            }
            terms += cursorTerms(p.w);
            if (p.w.op == Op::SelCase)
                cases += size_t{p.w.n[1]} * static_cast<uint32_t>(p.w.b);
            else if (p.w.op == Op::SelTable)
                consts += static_cast<uint32_t>(p.w.b);
        }
        for (const MemDesc &m : rs_.mems) {
            terms += Span{&m.addr}.length() + Span{&m.opn}.length() +
                     Span{&m.data}.length();
        }
        prog_.hoisted.reserve(folds);
        reserveSpareLine(prog_.cycle, plan_.size() + rs_.mems.size() + 2);
        reserveSpareLine(prog_.terms, terms);
        reserveSpareLine(prog_.caseTerms, cases);
        reserveSpareLine(prog_.latches, rs_.mems.size());
        reserveSpareLine(prog_.constTable, consts);
    }

    /** K of a case table: the largest case term span (at least 1, so
     *  a constant case still has a term for its bias). */
    uint8_t
    caseTerms(const CombComp &c) const
    {
        uint8_t k = 1;
        for (const ResolvedExpr &e : rs_.cases(c))
            k = std::max(k, Span{&e}.length());
        return k;
    }

    /** Emit rs.comb[i] from its plan. */
    void
    compileComb(uint32_t i, bool hoist)
    {
        const CombComp &c = rs_.comb[i];
        const Operands &ops = plan_[i].ops;
        Instr w = plan_[i].w;
        if (w.op == Op::AluFold) {
            (hoist ? prog_.hoisted : code_).push_back(w);
            return;
        }
        for (int k = 0; k < ops.n; ++k)
            appendSpan(rs_, ops.span(rs_, c, k), w.dst, prog_.terms);
        if (c.kind == CompKind::Selector) {
            if (w.op == Op::SelTable) {
                // Microcode-ROM pattern: all cases constant.
                w.a = static_cast<int32_t>(prog_.constTable.size());
                for (const ResolvedExpr &e : rs_.cases(c))
                    prog_.constTable.push_back(e.constTotal);
            } else {
                // K terms per case, a shorter case padded with zero
                // terms that read the selector's own slot.
                std::vector<VmTerm> &table = prog_.caseTerms;
                w.a = static_cast<int32_t>(table.size());
                VmTerm pad;
                pad.slot = w.dst;
                for (const ResolvedExpr &e : rs_.cases(c)) {
                    const size_t first = table.size();
                    appendSpan(rs_, {&e}, w.dst, table);
                    table.resize(first + w.n[1], pad);
                }
            }
        }
        code_.push_back(w);
    }

    /** The trace point and the latch phase: one word, and each
     *  memory's address span then its operation span. */
    void
    compileLatches()
    {
        const size_t first = prog_.terms.size();
        for (const auto &m : rs_.mems) {
            const Span adr{&m.addr}, opn{&m.opn};
            prog_.latches.push_back({static_cast<uint32_t>(m.index),
                                     adr.length(), opn.length()});
            const auto own = static_cast<uint32_t>(rs_.latchSlot(m.index));
            appendSpan(rs_, adr, own, prog_.terms);
            appendSpan(rs_, opn, own, prog_.terms);
        }
        Instr w{Op::Latch};
        w.a = static_cast<int32_t>(prog_.terms.size() - first);
        code_.push_back(w);
    }

    /** The update phase, declaration order: one word per memory, its
     *  data span when the operation may write or output. */
    void
    compileUpdates()
    {
        for (const auto &m : rs_.mems) {
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

            Instr w{Op::MemGen};
            w.dst = static_cast<uint32_t>(m.index);
            w.a = cells;
            if (m.opnConst) {
                switch (land(m.opnValue, 3)) {
                  case mem_op::kRead:
                    w.op = Op::MemRead;
                    break;
                  case mem_op::kWrite:
                    w.op = Op::MemWrite;
                    break;
                  case mem_op::kInput:
                    w.op = Op::MemInput;
                    w.a = flags;
                    break;
                  case mem_op::kOutput:
                    w.op = Op::MemOutput;
                    w.a = flags;
                    break;
                }
            }
            if (w.op != Op::MemRead && w.op != Op::MemInput) {
                const Span data{&m.data};
                w.n[0] = data.length();
                appendSpan(rs_, data,
                           static_cast<uint32_t>(rs_.latchSlot(m.index)),
                           prog_.terms);
            }
            code_.push_back(w);
        }
    }

    const ResolvedSpec &rs_;
    bool tracing_;
    /** The comb components' words, by rs.comb index. */
    std::vector<Planned> plan_;
    Program prog_;
    /** The stream being emitted, `prog_.cycle`. */
    std::vector<Instr> &code_ = prog_.cycle;
};

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::AluFold: return "alu.fold";
      case Op::AluMov: return "alu.mov";
      case Op::AluNot: return "alu.not";
#define ASIM_ALU_BINARY_NAME(NAME, MN, V)                              \
      case Op::Alu##NAME:                                              \
        return MN;
      ASIM_ALU_BINARY_ALL(ASIM_ALU_BINARY_NAME)
#undef ASIM_ALU_BINARY_NAME
      case Op::AluConst: return "alu.const";
      case Op::AluGen: return "alu.gen";
      case Op::SelTable: return "seltab";
      case Op::SelCase: return "selcase";
      case Op::Latch: return "latch";
      case Op::MemRead: return "mem.rd";
      case Op::MemWrite: return "mem.wr";
      case Op::MemInput: return "mem.in";
      case Op::MemOutput: return "mem.out";
      case Op::MemGen: return "mem.gen";
      case Op::EndCycle: return "end.cycle";
    }
    return "?";
}

uint32_t
cursorTerms(const Instr &in)
{
    if (in.op == Op::SelCase)
        return in.n[0];
    if (in.op == Op::Latch)
        return static_cast<uint32_t>(in.a);
    return uint32_t{in.n[0]} + in.n[1] + in.n[2];
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    const auto word = [&](size_t i, const Instr &in) {
        os << "  " << i << ": " << opName(in.op) << " #" << in.dst
           << " a=" << in.a << " b=" << in.b << " n=" << int(in.n[0])
           << "," << int(in.n[1]) << "," << int(in.n[2]) << "\n";
    };
    const auto term = [&](const char *indent, size_t i, const VmTerm &t) {
        os << indent << i << ": " << t.bias << " + #" << t.slot << " &"
           << t.mask << " rot " << t.rot << "\n";
    };
    os << "hoisted:\n";
    for (size_t i = 0; i < hoisted.size(); ++i)
        word(i, hoisted[i]);
    os << "cycle:\n";
    size_t t = 0;
    const auto spans = [&](uint32_t n) {
        for (; n > 0 && t < terms.size(); --n, ++t)
            term("      t", t, terms[t]);
    };
    for (size_t i = 0; i < cycle.size(); ++i) {
        word(i, cycle[i]);
        if (cycle[i].op != Op::Latch) {
            spans(cursorTerms(cycle[i]));
            continue;
        }
        for (const VmLatch &l : latches) {
            os << "    mem #" << l.mem << " adr=" << int(l.adr)
               << " opn=" << int(l.opn) << "\n";
            spans(uint32_t{l.adr} + l.opn);
        }
    }
    os << "cases:\n";
    for (size_t i = 0; i < caseTerms.size(); ++i)
        term("  ", i, caseTerms[i]);
    os << "constTable: " << constTable.size() << " entries\n";
    // Every word is one dispatch, so a cycle dispatches the whole
    // stream.
    os << "opt: cycle=" << cycle.size() << " dispatched=" << cycle.size()
       << " terms=" << terms.size() << " checksElided=" << opt.checksElided
       << " levels=" << opt.levels << " shapeRuns=" << opt.shapeRuns
       << " hoisted=" << opt.hoisted << "\n";
    return os.str();
}

Program
compileProgram(const ResolvedSpec &rs, const CompilerOptions &,
               bool tracingPossible)
{
    // Instr::dst and VmTerm::slot number value slots (output latches
    // included) in 32 bits.
    constexpr uint64_t kMaxSlots = uint64_t{1} << 32;
    const uint64_t slots =
        static_cast<uint64_t>(rs.numVarSlots) + rs.mems.size();
    if (slots > kMaxSlots) {
        throw SimError("Error. The vm engine numbers at most " +
                       std::to_string(kMaxSlots) +
                       " slots; this specification needs " +
                       std::to_string(slots) + ".");
    }
    Program p = Compiler(rs, tracingPossible).run();
    p.specHash = specIdentityHash(rs);
    p.traceChecks = tracingPossible;
    return p;
}

} // namespace asim

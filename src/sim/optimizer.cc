#include "sim/optimizer.hh"

#include <cstddef>
#include <set>

namespace asim {

namespace {

/** Operand-source kind of a simple scratch load. */
enum class Side
{
    None,
    C, ///< SetC: constant in `a`
    V, ///< LoadVar: field of vars[idx]
    T, ///< LoadTemp: field of mems[idx].temp
};

Side
loadSide(Op op)
{
    switch (op) {
      case Op::SetC: return Side::C;
      case Op::LoadVar: return Side::V;
      case Op::LoadTemp: return Side::T;
      default: return Side::None;
    }
}

Op
pairOp(Side s1, Side s2)
{
    static constexpr Op table[3][3] = {
        {Op::LoadPairCC, Op::LoadPairCV, Op::LoadPairCT},
        {Op::LoadPairVC, Op::LoadPairVV, Op::LoadPairVT},
        {Op::LoadPairTC, Op::LoadPairTV, Op::LoadPairTT},
    };
    return table[static_cast<int>(s1) - 1][static_cast<int>(s2) - 1];
}

/** Bank of a LoadPair's first / second side (row-major enum block:
 *  pair fusion keeps each side's original simple-load operands, so a
 *  half-dead pair can demote back to a plain load). */
Side
pairSide1(Op op)
{
    const int i = static_cast<int>(op) -
                  static_cast<int>(Op::LoadPairCC);
    return static_cast<Side>(i / 3 + 1);
}

Side
pairSide2(Op op)
{
    const int i = static_cast<int>(op) -
                  static_cast<int>(Op::LoadPairCC);
    return static_cast<Side>(i % 3 + 1);
}

Op
simpleLoadOp(Side s)
{
    return s == Side::C ? Op::SetC
           : s == Side::V ? Op::LoadVar
                          : Op::LoadTemp;
}

Op
accOp(Side s1, Side s2)
{
    // Second side is always a field (AccVar/AccTemp source).
    if (s1 == Side::C)
        return s2 == Side::V ? Op::LoadAccCV : Op::LoadAccCT;
    if (s1 == Side::V)
        return s2 == Side::V ? Op::LoadAccVV : Op::LoadAccVT;
    return s2 == Side::V ? Op::LoadAccTV : Op::LoadAccTT;
}

Op
latchOp(Side adr, Side opn)
{
    static constexpr Op table[3][3] = {
        {Op::MemLatchCC, Op::MemLatchCV, Op::MemLatchCT},
        {Op::MemLatchVC, Op::MemLatchVV, Op::MemLatchVT},
        {Op::MemLatchTC, Op::MemLatchTV, Op::MemLatchTT},
    };
    return table[static_cast<int>(adr) - 1][static_cast<int>(opn) - 1];
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

/** Position of an operand-bank combo in a fused-ALU op group, or -1
 *  for const/const (which constant folding removes before this ever
 *  runs). Order matches ASIM_ALU_FUSED_COMBOS in sim/bytecode.hh. */
int
aluComboIndex(Side l, Side r)
{
    if (l == Side::V)
        return r == Side::V ? 0 : r == Side::T ? 1 : 4;
    if (l == Side::T)
        return r == Side::V ? 2 : r == Side::T ? 3 : 5;
    return r == Side::V ? 6 : r == Side::T ? 7 : -1;
}

/** The s0..s3 bit of a scratch-register operand. Only the opcodes
 *  that name a scratch register may ask: memory and fused ops keep
 *  flag or bank bits in `reg`. */
uint8_t
regBit(const Instr &in)
{
    return static_cast<uint8_t>(1u << in.reg);
}

/** Scratch registers read by `in` (bitmask over s0..s3). Extension
 *  words and fused forms read nothing: their operands are inline. */
uint8_t
useMask(const Instr &in)
{
    switch (in.op) {
      case Op::AccVar:
      case Op::AccTemp:
        return regBit(in);
      case Op::AluGen:
        return 0b0111;
      case Op::AluConst:
      case Op::AluAdd:
      case Op::AluSub:
      case Op::AluMul:
      case Op::AluAnd:
      case Op::AluOr:
      case Op::AluXor:
      case Op::AluEq:
      case Op::AluLt:
        return 0b0110;
      case Op::AluRight:
        return 0b0100;
      case Op::AluLeft:
      case Op::AluNot:
        return 0b0010;
      case Op::SelTable:
      case Op::MemAdr:
      case Op::MemOpn:
        return 0b0001;
      case Op::SelStoreK:
        return in.reg == kSelFromS0 ? 0b0001 : 0;
      case Op::MemWrite:
      case Op::MemOutput:
      case Op::MemGenData:
        return 0b0010;
      default:
        return 0;
    }
}

class Optimizer
{
  public:
    Optimizer(Program &prog, const ResolvedSpec &rs)
        : p_(prog), rs_(rs)
    {}

    void
    run()
    {
        link();
        p_.opt.linked = static_cast<uint32_t>(p_.cycle.size());
        elideChecks();
        fuse();
        eliminateDeadStores();
        compact();
        // Second round on the compacted stream: dead-store removal
        // brings MemGenPre next to its inline-data finisher, and the
        // latch phase next to TraceCycle.
        mergeMemGen();
        fuseLatchRun();
        compact();
    }

  private:
    /** Concatenate the phase streams into one executable cycle. The
     *  comb phase holds no jump; MemGenPre's update-phase skip
     *  targets shift to their place in the cycle. The comb phase's
     *  folds ahead of `firstBarrier` go to `hoisted` instead. */
    void
    link()
    {
        auto &c = p_.cycle;
        c.clear();
        p_.hoisted.clear();
        for (size_t i = 0; i < p_.comb.size(); ++i) {
            const Instr &in = p_.comb[i];
            const bool hoist =
                in.op == Op::AluFold && i < p_.firstBarrier;
            (hoist ? p_.hoisted : c).push_back(in);
        }
        p_.opt.hoisted = static_cast<uint32_t>(p_.hoisted.size());
        c.push_back({Op::TraceCycle, 0, 0, 0, 0, 0});
        c.insert(c.end(), p_.latch.begin(), p_.latch.end());
        const auto updOff = static_cast<int32_t>(c.size());
        for (const Instr &in : p_.update) {
            c.push_back(in);
            if (in.op == Op::MemGenPre)
                c.back().a += updOff;
        }
        c.push_back({Op::EndCycle, 0, 0, 0, 0, 0});
    }

    /** Mark memory accesses whose latched address can never be out of
     *  range (the latch phase recomputes `adr` from the resolved
     *  address expression every cycle before the update phase runs,
     *  so the static bound holds for any machine state — including a
     *  restored snapshot). */
    void
    elideChecks()
    {
        std::set<int> safe;
        for (const auto &m : rs_.mems) {
            if (exprBelow(m.addr, m.size))
                safe.insert(m.index);
        }
        if (safe.empty())
            return;
        for (Instr &in : p_.cycle) {
            switch (in.op) {
              case Op::MemRead:
              case Op::MemWrite:
              case Op::MemGenPre:
              case Op::MemGenData:
                if (safe.count(in.idx))
                    in.reg |= kMemFlagNoCheck;
                break;
              default:
                break;
            }
        }
        p_.opt.checksElided = static_cast<uint32_t>(safe.size());
    }

    /** Every instruction a jump can land on: the word after each
     *  MemGenPre's data expression. Fusion never spans such a
     *  boundary at its *second* slot: the pair's combined effect
     *  must not be entered halfway. (The first slot may be a target —
     *  the superinstruction subsumes both originals, so landing on it
     *  is unchanged behavior.) */
    std::vector<bool>
    jumpTargets() const
    {
        std::vector<bool> target(p_.cycle.size() + 1, false);
        for (const Instr &in : p_.cycle) {
            if (in.op == Op::MemGenPre)
                target[in.a] = true;
        }
        return target;
    }

    /** One left-to-right pass pairing adjacent instructions into
     *  superinstructions. Consumer-side fusions (memory data,
     *  selector select) inline the producing load into the consumer
     *  and leave the load behind as an orphan for dead-store
     *  elimination. */
    void
    fuse()
    {
        auto &c = p_.cycle;
        const std::vector<bool> target = jumpTargets();
        size_t i = 0;
        while (i + 1 < c.size()) {
            if (target[i + 1]) {
                ++i;
                continue;
            }
            Instr &x = c[i];
            Instr &y = c[i + 1];
            const Side sx = loadSide(x.op);
            const Side sy = loadSide(y.op);

            // Three simple loads feeding a generic ALU: the whole
            // dologic evaluation in one dispatch, operands carried in
            // three extension words (original load layout).
            if (i + 3 < c.size() && !target[i + 2] && !target[i + 3] &&
                sx != Side::None && sy != Side::None && x.reg == 0 &&
                y.reg == 1 && c[i + 3].op == Op::AluGen) {
                const Side sz = loadSide(c[i + 2].op);
                if (sz != Side::None && c[i + 2].reg == 2) {
                    const auto bank = [](Side s) {
                        return static_cast<uint8_t>(
                            static_cast<int>(s) - 1);
                    };
                    Instr fx = {};
                    fx.op = Op::AluGenF;
                    fx.reg = static_cast<uint8_t>(
                        bank(sx) | (bank(sy) << 2) | (bank(sz) << 4));
                    fx.idx = c[i + 3].idx;
                    x.op = Op::Ext;
                    y.op = Op::Ext;
                    c[i + 2].op = Op::Ext;
                    c[i + 3] = c[i + 2];
                    c[i + 2] = y;
                    c[i + 1] = x;
                    c[i] = fx;
                    ++p_.opt.fused;
                    i += 4;
                    continue;
                }
            }

            // Two simple operand loads feeding a direct binary ALU:
            // the whole expression in one dispatch. Must win over
            // plain pair fusion, so it is tried first.
            if (i + 2 < c.size() && !target[i + 2] &&
                sx != Side::None && sy != Side::None && x.reg == 1 &&
                y.reg == 2) {
                const int op8 = aluDirectIndex(c[i + 2].op);
                const int combo = aluComboIndex(sx, sy);
                if (op8 >= 0 && combo >= 0) {
                    Instr fx = {};
                    fx.op = static_cast<Op>(
                        static_cast<int>(Op::AluFAddVV) + op8 * 8 +
                        combo);
                    fx.idx = c[i + 2].idx;
                    fx.a = x.a; // const, or field mask
                    if (sx != Side::C) {
                        fx.b = x.b;
                        fx.c = x.idx;
                    }
                    Instr fe = {};
                    fe.op = Op::Ext;
                    fe.a = y.a;
                    if (sy != Side::C) {
                        fe.b = y.b;
                        fe.c = y.idx;
                    }
                    x = fx;
                    y = fe;
                    c[i + 2] = {Op::Nop, 0, 0, 0, 0, 0};
                    ++p_.opt.fused;
                    i += 3;
                    continue;
                }
            }

            // Two independent loads into different registers.
            if (sx != Side::None && sy != Side::None &&
                x.reg != y.reg) {
                x.op = pairOp(sx, sy);
                y.op = Op::Ext;
                fused(i);
                continue;
            }
            // Load + accumulate into the same register: a two-term
            // expression in one dispatch.
            if (sx != Side::None &&
                (y.op == Op::AccVar || y.op == Op::AccTemp) &&
                x.reg == y.reg) {
                x.op = accOp(sx, y.op == Op::AccVar ? Side::V
                                                    : Side::T);
                y.op = Op::Ext;
                fused(i);
                continue;
            }
            // Memory latch pairs (same memory, adr then opn). The
            // all-constant pair fits one word; every other bank combo
            // keeps the opn operands in the second slot as an
            // extension word.
            if (x.op == Op::MemAdrC && y.op == Op::MemOpnC &&
                x.idx == y.idx) {
                x.op = Op::MemLatchCC;
                x.b = y.a;
                y = {Op::Nop, 0, 0, 0, 0, 0};
                fused(i);
                continue;
            }
            const Side adrSide =
                x.op == Op::MemAdrC ? Side::C
                : x.op == Op::MemAdrFVar ? Side::V
                : x.op == Op::MemAdrFTemp ? Side::T
                                          : Side::None;
            const Side opnSide =
                y.op == Op::MemOpnC ? Side::C
                : y.op == Op::MemOpnFVar ? Side::V
                : y.op == Op::MemOpnFTemp ? Side::T
                                          : Side::None;
            if (adrSide != Side::None && opnSide != Side::None &&
                x.idx == y.idx) {
                x.op = latchOp(adrSide, opnSide);
                y.op = Op::Ext; // opn const (a) or field (a/b/c)
                fused(i);
                continue;
            }
            // Single-load data expression inlined into the memory
            // update; the load at `i` becomes an orphan.
            if (sx != Side::None && x.reg == 1 &&
                y.op == Op::MemGenData) {
                y.op = sx == Side::C ? Op::MemGenDataC
                       : sx == Side::V ? Op::MemGenDataV
                                       : Op::MemGenDataT;
                y.a = x.a;
                y.b = x.b;
                y.c = x.idx;
                fused(i);
                continue;
            }
            if (sx != Side::None && x.reg == 1 &&
                (y.op == Op::MemWrite || y.op == Op::MemOutput)) {
                const bool wr = y.op == Op::MemWrite;
                if (sx == Side::C) {
                    y.op = wr ? Op::MemWriteC : Op::MemOutputC;
                    y.a = x.a;
                } else {
                    y.op = wr ? (sx == Side::V ? Op::MemWriteV
                                               : Op::MemWriteT)
                              : (sx == Side::V ? Op::MemOutputV
                                               : Op::MemOutputT);
                    y.a = x.a;
                    y.b = x.b;
                    y.c = x.idx;
                }
                fused(i);
                continue;
            }
            // Single-field select expression inlined into the table
            // lookup. The fused pair replaces both slots: the selector
            // operands move into the first word, the select field
            // into the extension word.
            if ((sx == Side::V || sx == Side::T) && x.reg == 0 &&
                y.op == Op::SelTable) {
                const Instr field = x;
                x = y;
                x.op = sx == Side::V ? Op::SelTableV : Op::SelTableT;
                y = {Op::Ext, 0, field.idx, field.a, field.b, 0};
                fused(i);
                continue;
            }
            ++i;
        }
        // `i` advanced past both slots of each fusion.
        void(0);
    }

    void
    fused(size_t &i)
    {
        ++p_.opt.fused;
        i += 2;
    }

    /**
     * Exact backward liveness over the four scratch registers; loads
     * whose register is provably never read again become Nops.
     *
     * The one control transfer inside the cycle stream is *forward*
     * (MemGenPre skips a later data expression), so one backward pass
     * computes exact live-in sets: when an instruction's successor is
     * a jump target, that target's live-in is already known. The one
     * backward edge — EndCycle to the cycle start — carries nothing:
     * every expression defines its scratch registers before reading
     * them, so no value crosses a cycle boundary.
     */
    void
    eliminateDeadStores()
    {
        auto &c = p_.cycle;
        const size_t n = c.size();
        // Live-in mask per instruction (index n: past the end).
        std::vector<uint8_t> lb(n + 1, 0);
        for (size_t i = n; i-- > 0;) {
            Instr &in = c[i];
            if (in.op == Op::Ext) {
                lb[i] = lb[i + 1]; // transparent: owner decodes it
                continue;
            }
            // Live-after: join over the actual successors.
            uint8_t la;
            switch (in.op) {
              case Op::EndCycle:
                la = 0;
                break;
              case Op::MemGenPre:
                // Falls through to the data expression or jumps past
                // it, depending on the latched operation.
                la = static_cast<uint8_t>(lb[i + 1] | lb[in.a]);
                break;
              default:
                la = lb[i + 1];
                break;
            }
            switch (in.op) {
              case Op::SetC:
              case Op::LoadVar:
              case Op::LoadTemp: {
                const uint8_t defBit = regBit(in);
                if (!(la & defBit)) {
                    in = {Op::Nop, 0, 0, 0, 0, 0};
                    ++p_.opt.deadStores;
                } else {
                    la &= static_cast<uint8_t>(~defBit);
                }
                break;
              }
              case Op::AccVar:
              case Op::AccTemp: {
                // Reads and writes the same register: removable when
                // dead, otherwise the register stays live upward.
                const uint8_t defBit = regBit(in);
                if (!(la & defBit)) {
                    in = {Op::Nop, 0, 0, 0, 0, 0};
                    ++p_.opt.deadStores;
                } else {
                    la |= defBit;
                }
                break;
              }
              case Op::LoadAccCV:
              case Op::LoadAccCT:
              case Op::LoadAccVV:
              case Op::LoadAccVT:
              case Op::LoadAccTV:
              case Op::LoadAccTT: {
                const uint8_t defBit = regBit(in);
                if (!(la & defBit)) {
                    in = {Op::Nop, 0, 0, 0, 0, 0};
                    c[i + 1] = {Op::Nop, 0, 0, 0, 0, 0};
                    p_.opt.deadStores += 2;
                } else {
                    la &= static_cast<uint8_t>(~defBit);
                }
                break;
              }
              case Op::LoadPairCC:
              case Op::LoadPairCV:
              case Op::LoadPairCT:
              case Op::LoadPairVC:
              case Op::LoadPairVV:
              case Op::LoadPairVT:
              case Op::LoadPairTC:
              case Op::LoadPairTV:
              case Op::LoadPairTT: {
                // Sides are independent: a half-dead pair demotes to
                // the surviving side's simple load.
                const Side s1 = pairSide1(in.op);
                const Side s2 = pairSide2(in.op);
                Instr &ext = c[i + 1];
                const uint8_t defBit = regBit(in);
                const uint8_t defBit2 = regBit(ext);
                const bool live1 = (la & defBit) != 0;
                const bool live2 = (la & defBit2) != 0;
                if (!live1 && !live2) {
                    in = {Op::Nop, 0, 0, 0, 0, 0};
                    ext = {Op::Nop, 0, 0, 0, 0, 0};
                    p_.opt.deadStores += 2;
                } else if (!live2) {
                    in.op = simpleLoadOp(s1);
                    ext = {Op::Nop, 0, 0, 0, 0, 0};
                    ++p_.opt.deadStores;
                    la &= static_cast<uint8_t>(~defBit);
                } else if (!live1) {
                    ext.op = simpleLoadOp(s2);
                    in = {Op::Nop, 0, 0, 0, 0, 0};
                    ++p_.opt.deadStores;
                    la &= static_cast<uint8_t>(~defBit2);
                } else {
                    la &= static_cast<uint8_t>(~(defBit | defBit2));
                }
                break;
              }
              default:
                la |= useMask(in);
                break;
            }
            lb[i] = la;
        }
    }

    /**
     * Merge MemGenPre with a directly adjacent inline-data finisher
     * into a single MemGen dispatch. Only valid once dead-store
     * elimination and compaction have removed the orphaned data load
     * between them: the pre's skip target must be the slot right
     * after the finisher, proving there is no data-expression code
     * left to jump over.
     */
    void
    mergeMemGen()
    {
        auto &c = p_.cycle;
        const std::vector<bool> target = jumpTargets();
        for (size_t i = 0; i + 1 < c.size(); ++i) {
            if (c[i].op != Op::MemGenPre || target[i + 1])
                continue;
            Instr &fin = c[i + 1];
            Op merged;
            switch (fin.op) {
              case Op::MemGenDataC: merged = Op::MemGenC; break;
              case Op::MemGenDataV: merged = Op::MemGenV; break;
              case Op::MemGenDataT: merged = Op::MemGenT; break;
              default: continue;
            }
            if (static_cast<size_t>(c[i].a) != i + 2)
                continue;
            Instr m = fin;
            m.op = merged;
            m.reg |= c[i].reg; // same memory: flags already agree
            c[i] = m;
            fin = {Op::Nop, 0, 0, 0, 0, 0};
            ++p_.opt.fused;
        }
    }

    /**
     * Fold the TraceCycle word and a following contiguous run of
     * MemLatch* words into TraceLatchRun: the whole latch phase
     * becomes one dispatch whose handler interprets the (unchanged)
     * latch words inline. Bails out if anything can jump into the
     * run, which never happens for compiler-emitted streams — the
     * latch phase sits between the jump-free comb phase and the
     * update phase.
     */
    void
    fuseLatchRun()
    {
        auto &c = p_.cycle;
        size_t tc = c.size();
        for (size_t i = 0; i < c.size(); ++i) {
            if (c[i].op == Op::TraceCycle) {
                tc = i;
                break;
            }
        }
        if (tc == c.size())
            return;
        size_t q = tc + 1;
        size_t ops = 0;
        while (q < c.size()) {
            switch (c[q].op) {
              case Op::MemLatchCC:
                q += 1;
                ++ops;
                continue;
              case Op::MemLatchVC:
              case Op::MemLatchTC:
              case Op::MemLatchVV:
              case Op::MemLatchCV:
              case Op::MemLatchCT:
              case Op::MemLatchVT:
              case Op::MemLatchTV:
              case Op::MemLatchTT:
                q += 2;
                ++ops;
                continue;
              default:
                break;
            }
            break;
        }
        if (ops == 0)
            return;
        const std::vector<bool> target = jumpTargets();
        for (size_t j = tc + 1; j < q; ++j) {
            if (target[j])
                return;
        }
        c[tc] = {Op::TraceLatchRun, 0, 0, 0,
                 static_cast<int32_t>(q - tc - 1), 0};
        p_.opt.fused += static_cast<uint32_t>(ops);
    }

    /** Drop Nops and remap every MemGenPre skip target. A target
     *  that sat on a removed instruction maps to the next survivor. */
    void
    compact()
    {
        auto &c = p_.cycle;
        bool any = false;
        for (const Instr &in : c) {
            if (in.op == Op::Nop) {
                any = true;
                break;
            }
        }
        // Remap-to-next-survivor table (one past the end maps to the
        // compacted size, for jumps that target stream end).
        std::vector<int32_t> remap(c.size() + 1, 0);
        int32_t next = 0;
        for (const Instr &in : c) {
            if (in.op != Op::Nop)
                ++next;
        }
        remap[c.size()] = next;
        for (size_t i = c.size(); i-- > 0;) {
            if (c[i].op != Op::Nop)
                --next;
            remap[i] = c[i].op == Op::Nop ? remap[i + 1] : next;
        }
        if (any) {
            for (Instr &in : c) {
                if (in.op == Op::MemGenPre)
                    in.a = remap[in.a];
            }
            std::vector<Instr> out;
            out.reserve(c.size());
            for (const Instr &in : c) {
                if (in.op != Op::Nop)
                    out.push_back(in);
            }
            c = std::move(out);
        }
    }

    Program &p_;
    const ResolvedSpec &rs_;
};

} // namespace

bool
exprBelow(const ResolvedExpr &e, int64_t limit)
{
    if (e.constTotal < 0)
        return false;
    int64_t max = e.constTotal;
    for (const auto &t : e.terms) {
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

void
linkAndOptimize(Program &prog, const ResolvedSpec &rs)
{
    Optimizer(prog, rs).run();
}

bool
opHasExt(Op op)
{
    switch (op) {
      case Op::LoadPairCC:
      case Op::LoadPairCV:
      case Op::LoadPairCT:
      case Op::LoadPairVC:
      case Op::LoadPairVV:
      case Op::LoadPairVT:
      case Op::LoadPairTC:
      case Op::LoadPairTV:
      case Op::LoadPairTT:
      case Op::LoadAccCV:
      case Op::LoadAccCT:
      case Op::LoadAccVV:
      case Op::LoadAccVT:
      case Op::LoadAccTV:
      case Op::LoadAccTT:
      case Op::MemLatchVC:
      case Op::MemLatchTC:
      case Op::MemLatchVV:
      case Op::MemLatchCV:
      case Op::MemLatchCT:
      case Op::MemLatchVT:
      case Op::MemLatchTV:
      case Op::MemLatchTT:
#define ASIM_ALU_FUSED_EXT(OPNAME, COMBO, L, R, V)                     \
      case Op::AluF##OPNAME##COMBO:
      ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_EXT)
#undef ASIM_ALU_FUSED_EXT
      case Op::SelTableV:
      case Op::SelTableT:
      case Op::SelStoreV: // select field word + per-case descriptors
      case Op::SelStoreT:
      case Op::SelStoreK:
      case Op::AluGenF: // three extension words
        return true;
      default:
        return false;
    }
}

} // namespace asim

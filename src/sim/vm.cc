#include "sim/vm.hh"

#include "sim/compiler.hh"
#include "support/bitops.hh"
#include "support/metrics.hh"

/**
 * Dispatch is threaded (docs/INTERNALS.md): every handler ends in its
 * own indirect `goto *table[op]`, giving the branch predictor one site
 * per opcode pair instead of a single shared dispatch branch. It needs
 * the labels-as-values extension, which the project's other GNU
 * dependencies (POSIX fork, -fwrapv) already imply.
 */
#if !defined(__GNUC__)
#error "the vm's threaded dispatch needs GCC or Clang (labels as values)"
#endif

namespace asim {

// Compile before the Engine base allocates the machine state: the
// state then fills the blocks this compile freed, beside this vm's own
// program. Allocated first, it would fill the gaps the previous vm's
// compile left beside that vm's program, and vms built one after
// another but run on different threads would write to cache lines
// the other reads every cycle.
Vm::Vm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg)
    : Vm(rs, cfg,
         std::make_shared<const Program>(
             compileProgram(*rs, {}, cfg.trace != nullptr)))
{}

Vm::Vm(std::shared_ptr<const ResolvedSpec> rs,
       const EngineConfig &cfg, std::shared_ptr<const Program> program)
    : Engine(std::move(rs), cfg), prog_(std::move(program))
{}

void
Vm::checkAddr(const MemoryState &ms, uint16_t idx,
              uint64_t cycle) const
{
    throw memoryFault(prog_->memInfos[idx].name, ms.adr,
                      ms.cells.size(), cycle);
}

void
Vm::selFail(const Instr &in, int32_t sel, uint64_t cycle) const
{
    const SelInfo &si = prog_->selInfos[in.c];
    throw selectorFault(si.name, sel, si.caseCount, cycle);
}

void
Vm::memTrace(const MemoryState &ms, int32_t temp, const Instr &in) const
{
    // Cold path: only reached when the compiler left a trace flag on
    // the instruction, which implies a sink was configured.
    if (in.reg & kMemFlagTraceW) {
        if (land(ms.opn, 5) == 5) {
            cfg_.trace->memWrite(prog_->memInfos[in.idx].name, ms.adr,
                                 temp);
        }
    }
    if (in.reg & kMemFlagTraceR) {
        if (land(ms.opn, 9) == 8) {
            cfg_.trace->memRead(prog_->memInfos[in.idx].name, ms.adr,
                                temp);
        }
    }
}

// Field decode of an instruction word's operands: slot in idx
// (load-style words) or in c (store/latch-style words, whose idx
// names the destination).
#define ASIM_FLDV(w) shiftField(land(vars[(w).idx], (w).a), (w).b)
#define ASIM_FLDVC(w) shiftField(land(vars[(w).c], (w).a), (w).b)

#define CASE(name) H_##name:
#define DISPATCH() goto *tbl[static_cast<uint8_t>(ip->op)]
#define NEXT() \
    do { \
        ++ip; \
        DISPATCH(); \
    } while (0)
#define NEXT2() \
    do { \
        ip += 2; \
        DISPATCH(); \
    } while (0)
#define NEXTN(k) \
    do { \
        ip += (k); \
        DISPATCH(); \
    } while (0)
#define JUMP(t) \
    do { \
        ip = base + (t); \
        DISPATCH(); \
    } while (0)
// One descriptor term, `bias + field(vars[slot])`, of a descriptor
// selector.
#define ASIM_DESC(d) wadd((d).c, ASIM_FLDV(d))
// Post the trace checks of the memory op at ip (its flags in reg).
#define MEMTRACE(ms) \
    do { \
        if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR)) \
            memTrace(ms, temps[ip->idx], *ip); \
    } while (0)

void
Vm::runCycles(uint64_t n)
{
    int32_t *const vars = state_.vars.data();
    // Each memory's output latch: temps[idx] (ResolvedSpec::latchSlot).
    int32_t *const temps = vars + rs_->numVarSlots;
    MemoryState *const mems = state_.mems.data();
    const Instr *const base = prog_->cycle.data();
    const int32_t *const ct = prog_->constTable.data();
    IoDevice *const io = io_;
    const AluSemantics alu = cfg_.aluSemantics;
    const bool tracing = cfg_.trace != nullptr;
    const uint64_t cycle0 = cycle_;

    int32_t s[4] = {0, 0, 0, 0};
    uint64_t left = n;
    uint64_t aluEvals = 0;
    uint64_t selEvals = 0;
    const Instr *ip = base;

    // Cycles completed so far = n - left; faults report the cycle in
    // progress, which is that same number.
    const auto curCycle = [&] { return cycle0 + (n - left); };
    // The hoisted folds take effect for every cycle started: each one
    // completed, and the partial one a fault ends (they precede the
    // first component that can fault).
    const auto flush = [&](bool faulted) {
        cycle_ = cycle0 + (n - left);
        aluEvals += prog_->hoisted.size() * (n - left + (faulted ? 1 : 0));
        stats_.cycles += n - left;
        stats_.aluEvals += aluEvals;
        stats_.selEvals += selEvals;
        if (metrics::timingEnabled()) {
            // Sampled at run exit from hot-loop locals, never from
            // inside the dispatch loop: the off path stays one
            // relaxed load. Dispatch is reported as cycles x static
            // stream length (a generic memory's skip may pass over its
            // data expression, so this is the dispatch upper bound the
            // fusion ratio is read from).
            metrics::counter("vm.dispatch.stream_ops")
                .add((n - left) * prog_->cycle.size());
            metrics::counter("vm.alu_evals").add(aluEvals);
            metrics::counter("vm.sel_evals").add(selEvals);
        }
    };
    const auto badAddr = [](const MemoryState &ms) {
        return static_cast<uint64_t>(
                   static_cast<int64_t>(ms.adr)) >= ms.cells.size();
    };

    for (const Instr &h : prog_->hoisted)
        vars[h.idx] = h.a;

    try {
        // One entry per Op, in exact enum order (sim/bytecode.hh).
        // Ext words are decoded by their owners, never dispatched.
        static const void *const tbl[] = {
            &&H_SetC, &&H_LoadVar, &&H_AccVar,
            &&H_AluGen, &&H_AluConst, &&H_AluRight,
            &&H_AluLeft, &&H_AluNot, &&H_AluAdd, &&H_AluSub,
            &&H_AluMul, &&H_AluAnd, &&H_AluOr, &&H_AluXor, &&H_AluEq,
            &&H_AluLt, &&H_AluFold,
            &&H_SelTable,
            &&H_MemAdr, &&H_MemOpn, &&H_MemAdrC, &&H_MemOpnC,
            &&H_MemAdrFVar, &&H_MemOpnFVar,
            &&H_MemRead, &&H_MemWrite, &&H_MemInput, &&H_MemOutput,
            &&H_MemGenPre, &&H_MemGenData,
            &&H_TraceCycle, &&H_EndCycle, &&H_Ext,
            &&H_LoadPairCC, &&H_LoadPairCV,
            &&H_LoadPairVC, &&H_LoadPairVV,
            &&H_LoadAccCV, &&H_LoadAccVV,
            &&H_MemLatchCC, &&H_MemLatchVC, &&H_MemLatchVV,
            &&H_MemWriteC, &&H_MemWriteV,
            &&H_MemOutputC, &&H_MemOutputV,
            &&H_SelTableV,
            &&H_MemLatchCV,
#define ASIM_ALU_FUSED_LABEL(OPNAME, COMBO, L, R, V)                   \
            &&H_AluF##OPNAME##COMBO,
            ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_LABEL)
#undef ASIM_ALU_FUSED_LABEL
            &&H_SelStoreV, &&H_SelStoreK,
            &&H_TraceLatchRun, &&H_AluGenF,
            &&H_MemGenC, &&H_MemGenV,
        };
        static_assert(sizeof(tbl) / sizeof(tbl[0]) == kOpCount,
                      "dispatch table out of sync with Op");
        DISPATCH();

        CASE(SetC)
        {
            s[ip->reg] = ip->a;
        }
        NEXT();
        CASE(LoadVar)
        {
            s[ip->reg] = ASIM_FLDV(*ip);
        }
        NEXT();
        CASE(AccVar)
        {
            s[ip->reg] = wadd(s[ip->reg], ASIM_FLDV(*ip));
        }
        NEXT();

        CASE(AluGen)
        {
            vars[ip->idx] = dologic(s[0], s[1], s[2], alu);
            ++aluEvals;
        }
        NEXT();
        CASE(AluConst)
        {
            vars[ip->idx] = dologic(ip->a, s[1], s[2], alu);
            ++aluEvals;
        }
        NEXT();
        CASE(AluRight)
        {
            vars[ip->idx] = s[2];
            ++aluEvals;
        }
        NEXT();
        CASE(AluLeft)
        {
            vars[ip->idx] = s[1];
            ++aluEvals;
        }
        NEXT();
        CASE(AluNot)
        {
            vars[ip->idx] = wsub(kValueMask, s[1]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluAdd)
        {
            vars[ip->idx] = wadd(s[1], s[2]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluSub)
        {
            vars[ip->idx] = wsub(s[1], s[2]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluMul)
        {
            vars[ip->idx] = wmul(s[1], s[2]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluAnd)
        {
            vars[ip->idx] = land(s[1], s[2]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluOr)
        {
            vars[ip->idx] =
                wsub(wadd(s[1], s[2]), land(s[1], s[2]));
            ++aluEvals;
        }
        NEXT();
        CASE(AluXor)
        {
            vars[ip->idx] =
                wsub(wadd(s[1], s[2]), wmul(land(s[1], s[2]), 2));
            ++aluEvals;
        }
        NEXT();
        CASE(AluEq)
        {
            vars[ip->idx] = s[1] == s[2] ? 1 : 0;
            ++aluEvals;
        }
        NEXT();
        CASE(AluLt)
        {
            vars[ip->idx] = s[1] < s[2] ? 1 : 0;
            ++aluEvals;
        }
        NEXT();
        CASE(AluFold)
        {
            vars[ip->idx] = ip->a;
            ++aluEvals;
        }
        NEXT();

        CASE(SelTable)
        {
            if (static_cast<uint32_t>(s[0]) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, s[0], curCycle());
            ++selEvals;
            vars[ip->idx] = ct[ip->a + s[0]];
        }
        NEXT();

        CASE(MemAdr)
        {
            mems[ip->idx].adr = s[0];
        }
        NEXT();
        CASE(MemOpn)
        {
            mems[ip->idx].opn = s[0];
        }
        NEXT();
        CASE(MemAdrC)
        {
            mems[ip->idx].adr = ip->a;
        }
        NEXT();
        CASE(MemOpnC)
        {
            mems[ip->idx].opn = ip->a;
        }
        NEXT();
        CASE(MemAdrFVar)
        {
            mems[ip->idx].adr = ASIM_FLDVC(*ip);
        }
        NEXT();
        CASE(MemOpnFVar)
        {
            mems[ip->idx].opn = ASIM_FLDVC(*ip);
        }
        NEXT();

        CASE(MemRead)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            temps[ip->idx] = ms.cells[ms.adr];
            ++stats_.mems[ip->idx].reads;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemWrite)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            temps[ip->idx] = s[1];
            ms.cells[ms.adr] = s[1];
            ++stats_.mems[ip->idx].writes;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemInput)
        {
            MemoryState &ms = mems[ip->idx];
            temps[ip->idx] = io->input(ms.adr);
            ++stats_.mems[ip->idx].inputs;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemOutput)
        {
            MemoryState &ms = mems[ip->idx];
            temps[ip->idx] = s[1];
            io->output(ms.adr, s[1]);
            ++stats_.mems[ip->idx].outputs;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemGenPre)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop == mem_op::kWrite || mop == mem_op::kOutput)
                NEXT(); // fall through to the data expression code
            if (mop == mem_op::kRead) {
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                temps[ip->idx] = ms.cells[ms.adr];
                ++stats_.mems[ip->idx].reads;
            } else { // input
                temps[ip->idx] = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            MEMTRACE(ms);
            JUMP(ip->a);
        }
        CASE(MemGenData)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop == mem_op::kWrite &&
                !(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx,
                          curCycle()); // before the latch is touched
            temps[ip->idx] = s[1];
            if (mop == mem_op::kWrite) {
                ms.cells[ms.adr] = s[1];
                ++stats_.mems[ip->idx].writes;
            } else { // output
                io->output(ms.adr, s[1]);
                ++stats_.mems[ip->idx].outputs;
            }
            MEMTRACE(ms);
        }
        NEXT();

        CASE(TraceCycle)
        {
            if (tracing) {
                cycle_ = curCycle();
                traceCycle();
            }
        }
        NEXT();
        CASE(EndCycle)
        {
            if (--left == 0)
                goto done;
            JUMP(0);
        }
        CASE(Ext)
        {
            // Never reached: the compiler keeps jump targets off
            // extension words.
            throw SimError("internal: dispatched an extension word");
        }

        CASE(LoadPairCC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairCV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();
        CASE(LoadPairVC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairVV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();

        CASE(LoadAccCV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ip->a, ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccVV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDV(*ip), ASIM_FLDV(e));
        }
        NEXT2();

        CASE(MemLatchCC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ip->b;
        }
        NEXT();
        CASE(MemLatchVC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ip[1].a;
        }
        NEXT2();
        CASE(MemLatchVV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();

        CASE(MemWriteC)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            temps[ip->idx] = ip->a;
            ms.cells[ms.adr] = ip->a;
            ++stats_.mems[ip->idx].writes;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemWriteV)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            const int32_t d = ASIM_FLDVC(*ip);
            temps[ip->idx] = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->idx].writes;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemOutputC)
        {
            MemoryState &ms = mems[ip->idx];
            temps[ip->idx] = ip->a;
            io->output(ms.adr, ip->a);
            ++stats_.mems[ip->idx].outputs;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemOutputV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t d = ASIM_FLDVC(*ip);
            temps[ip->idx] = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->idx].outputs;
            MEMTRACE(ms);
        }
        NEXT();

        CASE(SelTableV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDV(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            ++selEvals;
            vars[ip->idx] = ct[ip->a + sel];
        }
        NEXT2();
        CASE(MemLatchCV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();

        // Fused two-operand ALUs (one handler per op x operand combo,
        // generated from the shared X-macro so the decode expressions
        // are compile-time constants in every handler).
#define ASIM_ALU_FUSED_HANDLER(OPNAME, COMBO, LEXPR, REXPR, VEXPR)     \
        CASE(AluF##OPNAME##COMBO)                                      \
        {                                                              \
            const Instr &e = ip[1];                                    \
            (void)e;                                                   \
            const int32_t l = (LEXPR);                                 \
            const int32_t r = (REXPR);                                 \
            vars[ip->idx] = (VEXPR);                                   \
            ++aluEvals;                                                \
        }                                                              \
        NEXT2();
        ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_HANDLER)
#undef ASIM_ALU_FUSED_HANDLER

        // The selected case's descriptor decodes as one arithmetic
        // form, bias + field(vars[slot]); constant cases ride it with
        // a zero mask.
        CASE(SelStoreV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDVC(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            ++selEvals;
            vars[ip->idx] = ASIM_DESC(ip[2 + sel]);
            NEXTN(static_cast<int64_t>(ip->b) + 2);
        }
        CASE(SelStoreK)
        {
            const Instr &e = ip[1];
            const int32_t sel =
                ip->reg == kSelFromField ? ASIM_FLDVC(e) : s[0];
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            ++selEvals;
            const int32_t k = ip->a;
            const Instr *d = ip + 2 + static_cast<int64_t>(sel) * k;
            int32_t v = 0;
            for (int32_t j = 0; j < k; ++j)
                v = wadd(v, ASIM_DESC(d[j]));
            vars[ip->idx] = v;
            NEXTN(2 + static_cast<int64_t>(ip->b) * k);
        }

        CASE(TraceLatchRun)
        {
            if (tracing) {
                cycle_ = curCycle();
                traceCycle();
            }
            const Instr *q = ip + 1;
            const Instr *const qe = q + ip->b;
            do {
                const Instr &in = *q;
                MemoryState &ms = mems[in.idx];
                switch (in.op) {
                  case Op::MemLatchCC:
                    ms.adr = in.a;
                    ms.opn = in.b;
                    q += 1;
                    break;
                  case Op::MemLatchCV:
                    ms.adr = in.a;
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchVC:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = q[1].a;
                    q += 2;
                    break;
                  default: // MemLatchVV (the fuser admits no others)
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                }
            } while (q < qe);
            NEXTN(1 + ip->b);
        }

        CASE(AluGenF)
        {
            const Instr &e1 = ip[1];
            const Instr &e2 = ip[2];
            const Instr &e3 = ip[3];
            const uint8_t fields = ip->reg;
            const int32_t f = fields & 1 ? ASIM_FLDV(e1) : e1.a;
            const int32_t l = fields & 2 ? ASIM_FLDV(e2) : e2.a;
            const int32_t r = fields & 4 ? ASIM_FLDV(e3) : e3.a;
            vars[ip->idx] = dologic(f, l, r, alu);
            ++aluEvals;
            NEXTN(4);
        }

        // The general memory ops fold read and write into one
        // branch-free path: a read stores the cell's own value back,
        // so only the rare I/O pair takes a branch. The per-cycle
        // read/write mix is data-dependent (it was the worst
        // misprediction source in the profile), while op-vs-I/O is
        // fixed per memory and predicts perfectly.
        CASE(MemGenC)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ip->a : *cell;
                *cell = v;
                temps[ip->idx] = v;
                ++(wr ? stats_.mems[ip->idx].writes
                      : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                temps[ip->idx] = ip->a;
                io->output(ms.adr, ip->a);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                temps[ip->idx] = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemGenV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ASIM_FLDVC(*ip) : *cell;
                *cell = v;
                temps[ip->idx] = v;
                ++(wr ? stats_.mems[ip->idx].writes
                      : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                const int32_t d = ASIM_FLDVC(*ip);
                temps[ip->idx] = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                temps[ip->idx] = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            MEMTRACE(ms);
        }
        NEXT();

    } catch (...) {
        flush(true);
        throw;
    }

done:
    flush(false);
}

void
Vm::step()
{
    runCycles(1);
}

void
Vm::run(uint64_t cycles)
{
    if (cycles > 0)
        runCycles(cycles);
}

std::unique_ptr<Engine>
makeVm(const ResolvedSpec &rs, const EngineConfig &cfg)
{
    return makeVm(std::make_shared<const ResolvedSpec>(rs), cfg);
}

std::unique_ptr<Engine>
makeVm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg)
{
    return std::make_unique<Vm>(std::move(rs), cfg);
}

std::unique_ptr<Engine>
makeVm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
       std::shared_ptr<const Program> program)
{
    return std::make_unique<Vm>(std::move(rs), cfg,
                                std::move(program));
}

} // namespace asim

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
Vm::memTrace(const MemoryState &ms, const Instr &in) const
{
    // Cold path: only reached when the compiler left a trace flag on
    // the instruction, which implies a sink was configured.
    if (in.reg & kMemFlagTraceW) {
        if (land(ms.opn, 5) == 5) {
            cfg_.trace->memWrite(prog_->memInfos[in.idx].name, ms.adr,
                                 ms.temp);
        }
    }
    if (in.reg & kMemFlagTraceR) {
        if (land(ms.opn, 9) == 8) {
            cfg_.trace->memRead(prog_->memInfos[in.idx].name, ms.adr,
                                ms.temp);
        }
    }
}

// Field decode of an instruction word's operands: slot in idx
// (load-style words) or in c (store/latch-style words, whose idx
// names the destination).
#define ASIM_FLDV(w) shiftField(land(vars[(w).idx], (w).a), (w).b)
#define ASIM_FLDT(w) \
    shiftField(land(mems[(w).idx].temp, (w).a), (w).b)
#define ASIM_FLDVC(w) shiftField(land(vars[(w).c], (w).a), (w).b)
#define ASIM_FLDTC(w) \
    shiftField(land(mems[(w).c].temp, (w).a), (w).b)

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
// One descriptor term, `bias + field(bank[slot])`, of a descriptor
// selector: reg picks the bank (0 = vars, 1 = mem temps).
#define ASIM_DESC(d) \
    wadd((d).c, shiftField(land((d).reg ? mems[(d).idx].temp \
                                        : vars[(d).idx], \
                                (d).a), \
                           (d).b))

void
Vm::runCycles(uint64_t n)
{
    int32_t *const vars = state_.vars.data();
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
            &&H_SetC, &&H_LoadVar, &&H_LoadTemp, &&H_AccVar,
            &&H_AccTemp,
            &&H_AluGen, &&H_AluConst, &&H_AluRight,
            &&H_AluLeft, &&H_AluNot, &&H_AluAdd, &&H_AluSub,
            &&H_AluMul, &&H_AluAnd, &&H_AluOr, &&H_AluXor, &&H_AluEq,
            &&H_AluLt, &&H_AluFold,
            &&H_SelTable,
            &&H_MemAdr, &&H_MemOpn, &&H_MemAdrC, &&H_MemOpnC,
            &&H_MemAdrFVar, &&H_MemAdrFTemp, &&H_MemOpnFVar,
            &&H_MemOpnFTemp,
            &&H_MemRead, &&H_MemWrite, &&H_MemInput, &&H_MemOutput,
            &&H_MemGenPre, &&H_MemGenData,
            &&H_TraceCycle, &&H_EndCycle, &&H_Ext,
            &&H_LoadPairCC, &&H_LoadPairCV, &&H_LoadPairCT,
            &&H_LoadPairVC, &&H_LoadPairVV, &&H_LoadPairVT,
            &&H_LoadPairTC, &&H_LoadPairTV, &&H_LoadPairTT,
            &&H_LoadAccCV, &&H_LoadAccCT, &&H_LoadAccVV,
            &&H_LoadAccVT, &&H_LoadAccTV, &&H_LoadAccTT,
            &&H_MemLatchCC, &&H_MemLatchVC, &&H_MemLatchTC,
            &&H_MemLatchVV,
            &&H_MemWriteC, &&H_MemWriteV, &&H_MemWriteT,
            &&H_MemOutputC, &&H_MemOutputV, &&H_MemOutputT,
            &&H_SelTableV, &&H_SelTableT,
            &&H_MemLatchCV, &&H_MemLatchCT, &&H_MemLatchVT,
            &&H_MemLatchTV, &&H_MemLatchTT,
#define ASIM_ALU_FUSED_LABEL(OPNAME, COMBO, L, R, V)                   \
            &&H_AluF##OPNAME##COMBO,
            ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_LABEL)
#undef ASIM_ALU_FUSED_LABEL
            &&H_SelStoreV, &&H_SelStoreT, &&H_SelStoreK,
            &&H_TraceLatchRun, &&H_AluGenF,
            &&H_MemGenC, &&H_MemGenV, &&H_MemGenT,
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
        CASE(LoadTemp)
        {
            s[ip->reg] = ASIM_FLDT(*ip);
        }
        NEXT();
        CASE(AccVar)
        {
            s[ip->reg] = wadd(s[ip->reg], ASIM_FLDV(*ip));
        }
        NEXT();
        CASE(AccTemp)
        {
            s[ip->reg] = wadd(s[ip->reg], ASIM_FLDT(*ip));
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
        CASE(MemAdrFTemp)
        {
            mems[ip->idx].adr = ASIM_FLDTC(*ip);
        }
        NEXT();
        CASE(MemOpnFVar)
        {
            mems[ip->idx].opn = ASIM_FLDVC(*ip);
        }
        NEXT();
        CASE(MemOpnFTemp)
        {
            mems[ip->idx].opn = ASIM_FLDTC(*ip);
        }
        NEXT();

        CASE(MemRead)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            ms.temp = ms.cells[ms.adr];
            ++stats_.mems[ip->idx].reads;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWrite)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            ms.temp = s[1];
            ms.cells[ms.adr] = s[1];
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemInput)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = io->input(ms.adr);
            ++stats_.mems[ip->idx].inputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutput)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = s[1];
            io->output(ms.adr, s[1]);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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
                ms.temp = ms.cells[ms.adr];
                ++stats_.mems[ip->idx].reads;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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
            ms.temp = s[1];
            if (mop == mem_op::kWrite) {
                ms.cells[ms.adr] = s[1];
                ++stats_.mems[ip->idx].writes;
            } else { // output
                io->output(ms.adr, s[1]);
                ++stats_.mems[ip->idx].outputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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
        CASE(LoadPairCT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = ASIM_FLDT(e);
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
        CASE(LoadPairVT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = ASIM_FLDT(e);
        }
        NEXT2();
        CASE(LoadPairTC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairTV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();
        CASE(LoadPairTT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = ASIM_FLDT(e);
        }
        NEXT2();

        CASE(LoadAccCV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ip->a, ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccCT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ip->a, ASIM_FLDT(e));
        }
        NEXT2();
        CASE(LoadAccVV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDV(*ip), ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccVT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDV(*ip), ASIM_FLDT(e));
        }
        NEXT2();
        CASE(LoadAccTV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDT(*ip), ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccTT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDT(*ip), ASIM_FLDT(e));
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
        CASE(MemLatchTC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
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
            ms.temp = ip->a;
            ms.cells[ms.adr] = ip->a;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWriteV)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            const int32_t d = ASIM_FLDVC(*ip);
            ms.temp = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWriteT)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            const int32_t d = ASIM_FLDTC(*ip);
            ms.temp = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = ip->a;
            io->output(ms.adr, ip->a);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t d = ASIM_FLDVC(*ip);
            ms.temp = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputT)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t d = ASIM_FLDTC(*ip);
            ms.temp = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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
        CASE(SelTableT)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDT(e);
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
        CASE(MemLatchCT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();
        CASE(MemLatchVT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();
        CASE(MemLatchTV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();
        CASE(MemLatchTT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();

        // Fused two-operand ALUs (one handler per op x bank combo,
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
        // form, bias + field(bank[slot]), with the descriptor's reg
        // bit picking the bank (0 = vars, 1 = mem temps).  Constant
        // cases ride the vars form with a zero mask, so only
        // genuinely mixed var/temp selectors pay a data-dependent
        // bank branch.
        CASE(SelStoreV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDVC(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            ++selEvals;
            const Instr &d = ip[2 + sel];
            const int32_t src = d.reg ? mems[d.idx].temp
                                      : vars[d.idx];
            vars[ip->idx] =
                d.c + shiftField(land(src, d.a), d.b);
            NEXTN(static_cast<int64_t>(ip->b) + 2);
        }
        CASE(SelStoreT)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDTC(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            ++selEvals;
            const Instr &d = ip[2 + sel];
            const int32_t src = d.reg ? mems[d.idx].temp
                                      : vars[d.idx];
            vars[ip->idx] =
                d.c + shiftField(land(src, d.a), d.b);
            NEXTN(static_cast<int64_t>(ip->b) + 2);
        }
        CASE(SelStoreK)
        {
            const Instr &e = ip[1];
            const int32_t sel = ip->reg == kSelFromVar    ? ASIM_FLDVC(e)
                                : ip->reg == kSelFromTemp ? ASIM_FLDTC(e)
                                                          : s[0];
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
                  case Op::MemLatchCT:
                    ms.adr = in.a;
                    ms.opn = ASIM_FLDTC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchVC:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = q[1].a;
                    q += 2;
                    break;
                  case Op::MemLatchTC:
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = q[1].a;
                    q += 2;
                    break;
                  case Op::MemLatchVV:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchVT:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = ASIM_FLDTC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchTV:
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  default: // MemLatchTT (the fuser admits no others)
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = ASIM_FLDTC(q[1]);
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
            const uint8_t banks = ip->reg;
            const int32_t f = (banks & 3) == 0 ? e1.a
                              : (banks & 3) == 1 ? ASIM_FLDV(e1)
                                                 : ASIM_FLDT(e1);
            const int32_t l = (banks & 12) == 0 ? e2.a
                              : (banks & 12) == 4 ? ASIM_FLDV(e2)
                                                  : ASIM_FLDT(e2);
            const int32_t r = (banks & 48) == 0 ? e3.a
                              : (banks & 48) == 16 ? ASIM_FLDV(e3)
                                                   : ASIM_FLDT(e3);
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
                ms.temp = v;
                ++(wr ? stats_.mems[ip->idx].writes
                      : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                ms.temp = ip->a;
                io->output(ms.adr, ip->a);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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
                ms.temp = v;
                ++(wr ? stats_.mems[ip->idx].writes
                      : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                const int32_t d = ASIM_FLDVC(*ip);
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenT)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ASIM_FLDTC(*ip) : *cell;
                *cell = v;
                ms.temp = v;
                ++(wr ? stats_.mems[ip->idx].writes
                      : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                const int32_t d = ASIM_FLDTC(*ip);
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
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

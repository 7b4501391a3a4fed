#include "sim/vm.hh"

#include <bit>
#include <cassert>

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

Vm::Vm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg)
    : Vm(rs, cfg,
         std::make_shared<const Program>(
             compileProgram(*rs, {}, cfg.trace != nullptr)))
{}

Vm::Vm(std::shared_ptr<const ResolvedSpec> rs,
       const EngineConfig &cfg, std::shared_ptr<const Program> program)
    : Engine(std::move(rs), cfg), prog_(std::move(program))
{
    // The program indexes this engine's arrays by its own spec's
    // shape, and traces only what its trace checks kept.
    if (prog_->specHash != specIdentityHash(*rs_)) {
        throw SimError("shared vm program was compiled from a "
                       "different specification");
    }
    if (cfg.trace && !prog_->traceChecks) {
        throw SimError("shared vm program was compiled without trace "
                       "checks but a trace sink is configured");
    }
}

std::string_view
Vm::memName(uint32_t idx) const
{
    return rs_->name(rs_->mems[idx].name);
}

void
Vm::checkAddr(const MemoryState &ms, uint32_t idx, uint64_t cycle) const
{
    throw memoryFault(memName(idx), ms.adr, ms.cells.size(), cycle);
}

void
Vm::selFail(const Instr &in, int32_t sel, uint64_t cycle) const
{
    for (const CombComp &c : rs_->comb) {
        if (static_cast<uint32_t>(c.slot) == in.dst) {
            throw selectorFault(rs_->name(c.name), sel, rs_->cases(c).size(),
                                cycle);
        }
    }
    throw SimError("internal: no selector writes slot " +
                   std::to_string(in.dst));
}

void
Vm::memTrace(const MemoryState &ms, int32_t temp, const Instr &in) const
{
    // Cold path: only reached when the compiler left a trace flag on
    // the instruction, which implies a sink was configured.
    if ((in.a & kMemFlagTraceW) && land(ms.opn, 5) == 5)
        cfg_.trace->memWrite(memName(in.dst), ms.adr, temp);
    if ((in.a & kMemFlagTraceR) && land(ms.opn, 9) == 8)
        cfg_.trace->memRead(memName(in.dst), ms.adr, temp);
}

namespace {

/** One term's value: `bias + rotl(vars[slot] & mask, rot)`. */
[[gnu::always_inline]] inline int32_t
termValue(const int32_t *vars, const VmTerm &x)
{
    const auto field = static_cast<uint32_t>(land(vars[x.slot], x.mask));
    return wadd(x.bias, static_cast<int32_t>(std::rotl(field, x.rot)));
}

/** The value of the `n`-term span at `t` (n >= 1): the first term is
 *  read outside the loop, so a one-term span never enters it. */
[[gnu::always_inline]] inline int32_t
spanValue(const int32_t *vars, const VmTerm *t, uint32_t n)
{
    int32_t v = termValue(vars, t[0]);
    for (uint32_t j = 1; j < n; ++j)
        v = wadd(v, termValue(vars, t[j]));
    return v;
}

/** The span at the cursor `tc`, `n` terms long; advances the cursor
 *  past it. */
[[gnu::always_inline]] inline int32_t
nextSpan(const int32_t *vars, const VmTerm *&tc, uint32_t n)
{
    const int32_t v = spanValue(vars, tc, n);
    tc += n;
    return v;
}

} // namespace

#define CASE(name) H_##name:
#define DISPATCH() goto *tbl[static_cast<uint8_t>(ip->op)]
#define NEXT() \
    do { \
        ++ip; \
        DISPATCH(); \
    } while (0)
// The value of the word's next term span, `n` terms long.
#define SPAN(n) nextSpan(vars, tc, (n))
// Post the trace checks of the memory op at ip (its flags in a).
#define MEMTRACE(ms) \
    do { \
        if (ip->a & (kMemFlagTraceW | kMemFlagTraceR)) \
            memTrace(ms, temps[ip->dst], *ip); \
    } while (0)
#define CHECKADDR(ms) \
    do { \
        if (!(ip->a & kMemFlagNoCheck) && badAddr(ms)) \
            checkAddr(ms, ip->dst, CUR_CYCLE()); \
    } while (0)

void
Vm::runCycles(uint64_t n)
{
    int32_t *const vars = state_.vars.data();
    // Each memory's output latch: temps[idx] (ResolvedSpec::latchSlot).
    int32_t *const temps = vars + rs_->numVarSlots;
    MemoryState *const mems = state_.mems.data();
    const Instr *const base = prog_->cycle.data();
    const VmTerm *const terms = prog_->terms.data();
    const VmTerm *const cases = prog_->caseTerms.data();
    const VmLatch *const latches = prog_->latches.data();
    const VmLatch *const latchesEnd = latches + prog_->latches.size();
    const int32_t *const ct = prog_->constTable.data();
    IoDevice *const io = io_;
    const AluSemantics alu = cfg_.aluSemantics;
    const bool tracing = cfg_.trace != nullptr;
    const uint64_t cycle0 = cycle_;

    uint64_t left = n;
    uint64_t aluEvals = 0;
    uint64_t selEvals = 0;
    const Instr *ip = base;
    // The term cursor: the next span a word reads.
    const VmTerm *tc = terms;

    // Cycles completed so far = n - left; faults report the cycle in
    // progress, which is that same number. (No lambda holds the loop's
    // locals by reference: they stay in registers.)
#define CUR_CYCLE() (cycle0 + (n - left))
    const auto badAddr = [](const MemoryState &ms) {
        return static_cast<uint64_t>(
                   static_cast<int64_t>(ms.adr)) >= ms.cells.size();
    };

    for (const Instr &h : prog_->hoisted)
        vars[h.dst] = h.a;

    try {
        // One entry per Op, in exact enum order (sim/bytecode.hh).
        static const void *const tbl[] = {
            &&H_AluFold, &&H_AluMov, &&H_AluNot,
#define ASIM_ALU_BINARY_LABEL(NAME, MN, V) &&H_Alu##NAME,
            ASIM_ALU_BINARY_ALL(ASIM_ALU_BINARY_LABEL)
#undef ASIM_ALU_BINARY_LABEL
            &&H_AluConst, &&H_AluGen, &&H_SelTable, &&H_SelCase,
            &&H_Latch,
            &&H_MemRead, &&H_MemWrite, &&H_MemInput, &&H_MemOutput,
            &&H_MemGen, &&H_EndCycle,
        };
        static_assert(sizeof(tbl) / sizeof(tbl[0]) == kOpCount,
                      "dispatch table out of sync with Op");
        DISPATCH();

        CASE(AluFold)
        {
            vars[ip->dst] = ip->a;
            ++aluEvals;
        }
        NEXT();
        CASE(AluMov)
        {
            vars[ip->dst] = SPAN(ip->n[0]);
            ++aluEvals;
        }
        NEXT();
        CASE(AluNot)
        {
            vars[ip->dst] = wsub(kValueMask, SPAN(ip->n[0]));
            ++aluEvals;
        }
        NEXT();

        // The binary ALUs (one handler per op, generated from the
        // shared X-macro).
#define ASIM_ALU_BINARY_HANDLER(NAME, MN, VEXPR)                       \
        CASE(Alu##NAME)                                                \
        {                                                              \
            const int32_t l = SPAN(ip->n[0]);                          \
            const int32_t r = SPAN(ip->n[1]);                          \
            vars[ip->dst] = (VEXPR);                                   \
            ++aluEvals;                                                \
        }                                                              \
        NEXT();
        ASIM_ALU_BINARY_ALL(ASIM_ALU_BINARY_HANDLER)
#undef ASIM_ALU_BINARY_HANDLER

        CASE(AluConst)
        {
            const int32_t l = SPAN(ip->n[0]);
            const int32_t r = SPAN(ip->n[1]);
            vars[ip->dst] = dologic(ip->a, l, r, alu);
            ++aluEvals;
        }
        NEXT();
        CASE(AluGen)
        {
            const int32_t f = SPAN(ip->n[0]);
            const int32_t l = SPAN(ip->n[1]);
            const int32_t r = SPAN(ip->n[2]);
            vars[ip->dst] = dologic(f, l, r, alu);
            ++aluEvals;
        }
        NEXT();

        CASE(SelTable)
        {
            const int32_t sel = SPAN(ip->n[0]);
            if (static_cast<uint32_t>(sel) >= static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, CUR_CYCLE());
            ++selEvals;
            vars[ip->dst] = ct[ip->a + sel];
        }
        NEXT();
        // Only the taken case's K terms are read; K is fixed per word,
        // so the term loop's branch follows the stream, not the data.
        CASE(SelCase)
        {
            const int32_t sel = SPAN(ip->n[0]);
            if (static_cast<uint32_t>(sel) >= static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, CUR_CYCLE());
            ++selEvals;
            const uint32_t k = ip->n[1];
            vars[ip->dst] = spanValue(
                vars, cases + ip->a + static_cast<int64_t>(sel) * k, k);
        }
        NEXT();

        CASE(Latch)
        {
            if (tracing) {
                cycle_ = CUR_CYCLE();
                traceCycle();
            }
            for (const VmLatch *l = latches; l != latchesEnd; ++l) {
                MemoryState &ms = mems[l->mem];
                ms.adr = SPAN(l->adr);
                ms.opn = SPAN(l->opn);
            }
        }
        NEXT();

        CASE(MemRead)
        {
            MemoryState &ms = mems[ip->dst];
            CHECKADDR(ms);
            temps[ip->dst] = ms.cells[ms.adr];
            ++stats_.mems[ip->dst].reads;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemWrite)
        {
            const int32_t d = SPAN(ip->n[0]);
            MemoryState &ms = mems[ip->dst];
            CHECKADDR(ms);
            temps[ip->dst] = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->dst].writes;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemInput)
        {
            MemoryState &ms = mems[ip->dst];
            temps[ip->dst] = io->input(ms.adr);
            ++stats_.mems[ip->dst].inputs;
            MEMTRACE(ms);
        }
        NEXT();
        CASE(MemOutput)
        {
            const int32_t d = SPAN(ip->n[0]);
            MemoryState &ms = mems[ip->dst];
            temps[ip->dst] = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->dst].outputs;
            MEMTRACE(ms);
        }
        NEXT();
        // The generic memory op folds read and write into one
        // branch-free path: a read stores the cell's own value back,
        // so only the rare I/O pair takes a branch. The per-cycle
        // read/write mix is data-dependent, while op-vs-I/O is fixed
        // per memory and predicts perfectly. The data span is read
        // whatever the operation: it has no side effect.
        CASE(MemGen)
        {
            const int32_t d = SPAN(ip->n[0]);
            MemoryState &ms = mems[ip->dst];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                CHECKADDR(ms);
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? d : *cell;
                *cell = v;
                temps[ip->dst] = v;
                ++(wr ? stats_.mems[ip->dst].writes
                      : stats_.mems[ip->dst].reads);
            } else if (mop == mem_op::kOutput) {
                temps[ip->dst] = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->dst].outputs;
            } else { // input
                temps[ip->dst] = io->input(ms.adr);
                ++stats_.mems[ip->dst].inputs;
            }
            MEMTRACE(ms);
        }
        NEXT();

        CASE(EndCycle)
        {
            // Every word read its spans: the cursor ends each cycle at
            // the end of the term array.
            assert(tc == terms + prog_->terms.size());
            if (--left == 0)
                goto done;
            ip = base;
            tc = terms;
            DISPATCH();
        }

    } catch (...) {
        finishRun(cycle0, n - left, aluEvals, selEvals,
                  static_cast<uint64_t>(ip - base) + 1);
        throw;
    }

done:
    finishRun(cycle0, n, aluEvals, selEvals, 0);
}
#undef CUR_CYCLE

void
Vm::finishRun(uint64_t cycle0, uint64_t done, uint64_t aluEvals,
              uint64_t selEvals, uint64_t partial)
{
    // The hoisted folds take effect for every cycle started: each one
    // completed, and the partial one a fault ends (they precede the
    // first component that can fault).
    cycle_ = cycle0 + done;
    aluEvals += prog_->hoisted.size() * (done + (partial != 0 ? 1 : 0));
    stats_.cycles += done;
    stats_.aluEvals += aluEvals;
    stats_.selEvals += selEvals;
    if (metrics::timingEnabled()) {
        // Sampled at run exit from hot-loop locals, never from inside
        // the dispatch loop: the off path stays one relaxed load.
        // Every word of the stream is dispatched once per cycle, so
        // this is the exact dispatch count: the whole stream per
        // completed cycle, and at a fault the words up to the faulting
        // one.
        metrics::counter("vm.dispatch.stream_ops")
            .add(done * prog_->cycle.size() + partial);
        metrics::counter("vm.alu_evals").add(aluEvals);
        metrics::counter("vm.sel_evals").add(selEvals);
    }
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

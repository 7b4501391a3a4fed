#include "sim/native_engine.hh"

#include <algorithm>
#include <utility>

#include "support/tracing.hh"

namespace asim {

NativeEngine::NativeEngine(std::shared_ptr<const ResolvedSpec> rs,
                           const EngineConfig &cfg, Options opts)
    : Engine(std::move(rs), cfg),
      build_(opts.prebuilt ? std::move(opts.prebuilt)
                           : buildFor(*rs_, cfg.aluSemantics,
                                      cfg.trace != nullptr,
                                      opts.workDir)),
      memPtrs_(4 * rs_->mems.size()), memOps_(4 * rs_->mems.size()),
      scratch_(rs_->numVarSlots + 3 * rs_->mems.size())
{
    if (!build_->run)
        throw SimError("native build is a program, not a loaded library");
    // The library indexes this engine's arrays by its own spec's
    // shape: a build of another spec would write past them.
    if (build_->specHash != specIdentityHash(*rs_)) {
        throw SimError("shared native build was compiled from a "
                       "different specification");
    }
    if (cfg.trace && !build_->emitsTrace) {
        throw SimError("shared native build was compiled without "
                       "trace output but a trace sink is configured");
    }
    if (build_->aluSemantics != cfg.aluSemantics) {
        throw SimError("shared native build was compiled with "
                       "different ALU semantics than this "
                       "engine's configuration");
    }
    for (const CombComp &c : rs_->comb)
        ++(c.kind == CompKind::Alu ? alus_ : sels_);
    ctx_.mems = memPtrs_.data();
    ctx_.memops = memOps_.data();
    ctx_.scratch = scratch_.data();
    ctx_.host = this;
    ctx_.input = input;
    ctx_.output = output;
    ctx_.trace = traceLine;
    ctx_.memtrace = traceMem;
}

std::shared_ptr<const NativeBuild>
NativeEngine::buildFor(const ResolvedSpec &rs, AluSemantics sem,
                       bool trace, const std::string &workDir)
{
    tracing::Span span("native.compile", "lifecycle");
    CodegenOptions cg;
    cg.aluSemantics = sem;
    cg.emitTrace = trace;
    return workDir.empty() ? compileSpecCached(rs, cg, specIdentityHash(rs))
                           : compileSpecShared(rs, cg, workDir);
}

void
NativeEngine::run(uint64_t cycles)
{
    if (cycles == 0)
        return;
    // Re-aim the library at state_ every call: reset() and callers of
    // the mutable state() accessor may have reallocated its arrays.
    ctx_.vars = state_.vars.data();
    for (size_t i = 0; i < state_.mems.size(); ++i) {
        MemoryState &m = state_.mems[i];
        memPtrs_[4 * i] = m.cells.data();
        memPtrs_[4 * i + 1] = &state_.latches()[i];
        memPtrs_[4 * i + 2] = &m.adr;
        memPtrs_[4 * i + 3] = &m.opn;
    }
    const uint64_t start = cycle_;
    ctx_.cycle = static_cast<long long>(start);
    const int code = build_->run(&ctx_, cycles);
    if (code != 0)
        fault(code, start);
    settle(start, 0, 0, 0);
    rethrowKept();
}

void
NativeEngine::rethrowKept()
{
    // A device or sink threw inside the run: surface it now that the
    // library has written its state back.
    if (thrown_)
        std::rethrow_exception(std::exchange(thrown_, nullptr));
}

void
NativeEngine::settle(uint64_t start, uint64_t alus, uint64_t sels,
                     size_t mems)
{
    cycle_ = static_cast<uint64_t>(ctx_.cycle);
    const uint64_t done = cycle_ - start;
    stats_.cycles += done;
    stats_.aluEvals += done * alus_ + alus;
    stats_.selEvals += done * sels_ + sels;
    for (size_t i = 0; i < stats_.mems.size(); ++i) {
        // One access per memory per completed cycle, plus one for
        // each memory that ran before a faulting one.
        const uint64_t *ops = &memOps_[4 * i];
        MemStats &ms = stats_.mems[i];
        ms.reads += done + (i < mems ? 1 : 0) - ops[1] - ops[2] -
                    ops[3];
        ms.writes += ops[1];
        ms.inputs += ops[2];
        ms.outputs += ops[3];
    }
    std::fill(memOps_.begin(), memOps_.end(), 0);
}

void
NativeEngine::fault(int code, uint64_t start)
{
    const std::string name = ctx_.faultname;
    const int32_t value = ctx_.faultvalue;
    if (code == kNativeAddressFault) {
        // The whole comb phase and the memories before this one ran.
        const MemDesc &m = rs_->mems[rs_->memIndex(name)];
        settle(start, alus_, sels_, static_cast<size_t>(m.index));
        rethrowKept();
        throw memoryFault(rs_->name(m.name), value,
                          static_cast<size_t>(m.size),
                          cycle_);
    }
    // The comb components before the faulting one ran this cycle.
    const int slot = rs_->varSlot(name);
    uint64_t alus = 0, sels = 0;
    const CombComp *at = nullptr;
    for (const CombComp &c : rs_->comb) {
        if (c.slot == slot) {
            at = &c;
            break;
        }
        ++(c.kind == CompKind::Alu ? alus : sels);
    }
    settle(start, alus, sels, 0);
    rethrowKept();
    if (code == kNativeSelectorFault && at)
        throw selectorFault(rs_->name(at->name), value,
                            rs_->cases(*at).size(), cycle_);
    aluFunctionOutOfRange(value);
}

template <typename F>
auto
NativeEngine::guarded(void *host, F &&body)
{
    auto *self = static_cast<NativeEngine *>(host);
    try {
        return body(*self);
    } catch (...) {
        if (!self->thrown_)
            self->thrown_ = std::current_exception();
        return decltype(body(*self))();
    }
}

int32_t
NativeEngine::input(void *host, int32_t address)
{
    return guarded(host, [&](NativeEngine &e) {
        return e.io_->input(address);
    });
}

void
NativeEngine::output(void *host, int32_t address, int32_t data)
{
    guarded(host, [&](NativeEngine &e) { e.io_->output(address, data); });
}

void
NativeEngine::traceLine(void *host, long long cycle)
{
    guarded(host, [&](NativeEngine &e) {
        e.cycle_ = static_cast<uint64_t>(cycle);
        e.traceCycle();
    });
}

void
NativeEngine::traceMem(void *host, const char *mem, int write,
                       int32_t address, int32_t value)
{
    // A build shared across a batch traces for every instance; the
    // events of one without a sink go nowhere.
    guarded(host, [&](NativeEngine &e) {
        if (!e.cfg_.trace)
            return;
        if (write)
            e.cfg_.trace->memWrite(mem, address, value);
        else
            e.cfg_.trace->memRead(mem, address, value);
    });
}

} // namespace asim

#include "sim/interpreter.hh"

#include "support/bitops.hh"

namespace asim {

Interpreter::Interpreter(std::shared_ptr<const ResolvedSpec> rs,
                         const EngineConfig &cfg)
    : Engine(std::move(rs), cfg)
{}

int32_t
Interpreter::eval(const ResolvedExpr &e) const
{
    int32_t acc = e.constTotal;
    for (const ResolvedTerm &t : rs_->terms(e)) {
        int32_t v = state_.vars[t.slot];
        if (!t.whole())
            v = land(v, t.mask);
        acc = wadd(acc, shiftField(v, t.shift));
    }
    return acc;
}

void
Interpreter::evalCombOne(const CombComp &c)
{
    if (c.kind == CompKind::Alu) {
        int32_t f = eval(rs_->funct(c));
        int32_t l = eval(rs_->left(c));
        int32_t r = eval(rs_->right(c));
        state_.vars[c.slot] = dologic(f, l, r, cfg_.aluSemantics);
    } else {
        const std::span<const ResolvedExpr> cases = rs_->cases(c);
        int32_t idx = eval(rs_->select(c));
        if (idx < 0 || idx >= static_cast<int32_t>(cases.size())) {
            throw selectorFault(rs_->name(c.name), idx, cases.size(),
                                cycle_);
        }
        state_.vars[c.slot] = eval(cases[idx]);
    }
}

void
Interpreter::evalCombinational()
{
    for (const auto &c : rs_->comb) {
        evalCombOne(c);
        if (c.kind == CompKind::Alu)
            ++stats_.aluEvals;
        else
            ++stats_.selEvals;
    }
}

void
Interpreter::latchMemOne(const MemDesc &m)
{
    MemoryState &ms = state_.mems[m.index];
    ms.adr = eval(m.addr);
    ms.opn = eval(m.opn);
}

void
Interpreter::latchMemories()
{
    for (const auto &m : rs_->mems)
        latchMemOne(m);
}

void
Interpreter::updateMemOne(const MemDesc &m)
{
    MemoryState &ms = state_.mems[m.index];
    int32_t &temp = state_.vars[rs_->latchSlot(m.index)];
    const int32_t op = land(ms.opn, 3);
    const int32_t adr = ms.adr;

    auto checkAddr = [&]() {
        if (adr < 0 ||
            adr >= static_cast<int32_t>(ms.cells.size())) {
            throw memoryFault(rs_->name(m.name), adr, ms.cells.size(),
                              cycle_);
        }
    };

    switch (op) {
      case mem_op::kRead:
        checkAddr();
        temp = ms.cells[adr];
        ++stats_.mems[m.index].reads;
        break;
      case mem_op::kWrite:
        checkAddr();
        temp = eval(m.data);
        ms.cells[adr] = temp;
        ++stats_.mems[m.index].writes;
        break;
      case mem_op::kInput:
        temp = io_->input(adr);
        ++stats_.mems[m.index].inputs;
        break;
      case mem_op::kOutput:
        temp = eval(m.data);
        io_->output(adr, temp);
        ++stats_.mems[m.index].outputs;
        break;
    }

    if (cfg_.trace) {
        if (land(ms.opn, 5) == 5)
            cfg_.trace->memWrite(rs_->name(m.name), adr, temp);
        if (land(ms.opn, 9) == 8)
            cfg_.trace->memRead(rs_->name(m.name), adr, temp);
    }
}

void
Interpreter::updateMemories()
{
    for (const auto &m : rs_->mems)
        updateMemOne(m);
}

void
Interpreter::step()
{
    evalCombinational();
    traceCycle();
    latchMemories();
    updateMemories();
    ++cycle_;
    ++stats_.cycles;
}

std::unique_ptr<Engine>
makeInterpreter(const ResolvedSpec &rs, const EngineConfig &cfg)
{
    return makeInterpreter(std::make_shared<const ResolvedSpec>(rs),
                           cfg);
}

std::unique_ptr<Engine>
makeInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                const EngineConfig &cfg)
{
    return std::make_unique<Interpreter>(std::move(rs), cfg);
}

} // namespace asim

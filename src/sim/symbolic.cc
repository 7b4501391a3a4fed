#include "sim/symbolic.hh"

#include "support/bitops.hh"

namespace asim {

SymbolicInterpreter::SymbolicInterpreter(
    std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
    std::shared_ptr<const Spec> ast)
    : Engine(std::move(rs), cfg), ast_(std::move(ast))
{
    if (!ast_)
        ast_ = std::make_shared<const Spec>(rs_->ast());
    for (const auto &cc : rs_->comb)
        combOrder_.emplace_back(&ast_->comps[cc.declIndex], -1);
    for (const auto &m : rs_->mems)
        memOrder_.emplace_back(&ast_->comps[m.declIndex], m.index);
}

int32_t
SymbolicInterpreter::lookup(std::string_view name) const
{
    // The defining characteristic of the ASIM baseline: a symbol-table
    // lookup per reference, every cycle.
    const int slot = rs_->valueSlot(name);
    if (slot >= 0)
        return state_.vars[slot];
    throw SimError("Error. Component <" + std::string(name) +
                   "> not found.");
}

int32_t
SymbolicInterpreter::eval(Expr e) const
{
    // Right-to-left accumulation over the *unresolved* terms, building
    // masks and shift factors on the fly (the thesis expr() logic,
    // executed per evaluation instead of once).
    int32_t acc = 0;
    int numbits = 0;
    const std::span<const Term> terms = ast_->terms(e);
    for (auto it = terms.rbegin(); it != terms.rend(); ++it) {
        const Term &t = *it;
        switch (t.kind) {
          case Term::Kind::Const:
            if (t.width >= 0) {
                acc = wadd(acc, shiftField(land(t.value,
                                                lowMask(t.width)),
                                           numbits));
                numbits += t.width;
            } else {
                acc = wadd(acc, shiftField(t.value, numbits));
                numbits = kMaxBits;
            }
            break;
          case Term::Kind::BitString:
            acc = wadd(acc, shiftField(t.value, numbits));
            numbits += t.width;
            break;
          case Term::Kind::Ref: {
            int32_t v = lookup(ast_->name(t.ref));
            if (t.from >= 0) {
                int to = t.to < 0 ? t.from : t.to;
                v = land(v, maskBits(t.from, to));
                v = shiftField(v, numbits - t.from);
                numbits += to - t.from + 1;
            } else {
                v = shiftField(v, numbits);
                numbits = kMaxBits;
            }
            acc = wadd(acc, v);
            break;
          }
        }
    }
    return acc;
}

void
SymbolicInterpreter::evalComponent(const Component &c)
{
    int slot = rs_->varSlot(ast_->name(c.name));
    if (c.kind == CompKind::Alu) {
        int32_t f = eval(ast_->expr(c, 0));
        int32_t l = eval(ast_->expr(c, 1));
        int32_t r = eval(ast_->expr(c, 2));
        state_.vars[slot] = dologic(f, l, r, cfg_.aluSemantics);
        ++stats_.aluEvals;
    } else {
        const std::span<const Expr> cases = ast_->cases(c);
        int32_t idx = eval(ast_->expr(c, 0));
        if (idx < 0 || idx >= static_cast<int32_t>(cases.size())) {
            throw selectorFault(ast_->name(c.name), idx, cases.size(),
                                cycle_);
        }
        state_.vars[slot] = eval(cases[idx]);
        ++stats_.selEvals;
    }
}

void
SymbolicInterpreter::updateMemory(const Component &c, int index)
{
    MemoryState &ms = state_.mems[index];
    int32_t &temp = state_.vars[rs_->latchSlot(index)];
    const int32_t op = land(ms.opn, 3);
    const int32_t adr = ms.adr;

    auto checkAddr = [&]() {
        if (adr < 0 || adr >= static_cast<int32_t>(ms.cells.size())) {
            throw memoryFault(ast_->name(c.name), adr, ms.cells.size(),
                              cycle_);
        }
    };

    switch (op) {
      case mem_op::kRead:
        checkAddr();
        temp = ms.cells[adr];
        ++stats_.mems[index].reads;
        break;
      case mem_op::kWrite:
        checkAddr();
        temp = eval(ast_->expr(c, 1));
        ms.cells[adr] = temp;
        ++stats_.mems[index].writes;
        break;
      case mem_op::kInput:
        temp = io_->input(adr);
        ++stats_.mems[index].inputs;
        break;
      case mem_op::kOutput:
        temp = eval(ast_->expr(c, 1));
        io_->output(adr, temp);
        ++stats_.mems[index].outputs;
        break;
    }

    if (cfg_.trace) {
        if (land(ms.opn, 5) == 5)
            cfg_.trace->memWrite(ast_->name(c.name), adr, temp);
        if (land(ms.opn, 9) == 8)
            cfg_.trace->memRead(ast_->name(c.name), adr, temp);
    }
}

void
SymbolicInterpreter::step()
{
    for (const auto &[c, unused] : combOrder_)
        evalComponent(*c);
    traceCycle();
    for (const auto &[c, index] : memOrder_) {
        MemoryState &ms = state_.mems[index];
        ms.adr = eval(ast_->expr(*c, 0));
        ms.opn = eval(ast_->expr(*c, 2));
    }
    for (const auto &[c, index] : memOrder_)
        updateMemory(*c, index);
    ++cycle_;
    ++stats_.cycles;
}

std::unique_ptr<Engine>
makeSymbolicInterpreter(const ResolvedSpec &rs, const EngineConfig &cfg)
{
    return makeSymbolicInterpreter(
        std::make_shared<const ResolvedSpec>(rs), cfg);
}

std::unique_ptr<Engine>
makeSymbolicInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                        const EngineConfig &cfg,
                        std::shared_ptr<const Spec> ast)
{
    return std::make_unique<SymbolicInterpreter>(std::move(rs), cfg,
                                                 std::move(ast));
}

} // namespace asim

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
SymbolicInterpreter::lookup(const std::string &name) const
{
    // The defining characteristic of the ASIM baseline: a symbol-table
    // lookup per reference, every cycle.
    auto vit = rs_->varSlots.find(name);
    if (vit != rs_->varSlots.end())
        return state_.vars[vit->second];
    auto mit = rs_->memIndexes.find(name);
    if (mit != rs_->memIndexes.end())
        return state_.mems[mit->second].temp;
    throw SimError("Error. Component <" + name + "> not found.");
}

int32_t
SymbolicInterpreter::eval(const Expr &e) const
{
    // Right-to-left accumulation over the *unresolved* terms, building
    // masks and shift factors on the fly (the thesis expr() logic,
    // executed per evaluation instead of once).
    int32_t acc = 0;
    int numbits = 0;
    for (auto it = e.terms.rbegin(); it != e.terms.rend(); ++it) {
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
            int32_t v = lookup(t.ref);
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
    int slot = rs_->varSlot(c.name);
    if (c.kind == CompKind::Alu) {
        int32_t f = eval(c.funct);
        int32_t l = eval(c.left);
        int32_t r = eval(c.right);
        state_.vars[slot] = dologic(f, l, r, cfg_.aluSemantics);
        ++stats_.aluEvals;
    } else {
        int32_t idx = eval(c.select);
        if (idx < 0 || idx >= static_cast<int32_t>(c.cases.size())) {
            throw selectorFault(c.name, idx, c.cases.size(), cycle_);
        }
        state_.vars[slot] = eval(c.cases[idx]);
        ++stats_.selEvals;
    }
}

void
SymbolicInterpreter::updateMemory(const Component &c, int index)
{
    MemoryState &ms = state_.mems[index];
    const int32_t op = land(ms.opn, 3);
    const int32_t adr = ms.adr;

    auto checkAddr = [&]() {
        if (adr < 0 || adr >= static_cast<int32_t>(ms.cells.size())) {
            throw memoryFault(c.name, adr, ms.cells.size(), cycle_);
        }
    };

    switch (op) {
      case mem_op::kRead:
        checkAddr();
        ms.temp = ms.cells[adr];
        ++stats_.mems[index].reads;
        break;
      case mem_op::kWrite:
        checkAddr();
        ms.temp = eval(c.data);
        ms.cells[adr] = ms.temp;
        ++stats_.mems[index].writes;
        break;
      case mem_op::kInput:
        ms.temp = io_->input(adr);
        ++stats_.mems[index].inputs;
        break;
      case mem_op::kOutput:
        ms.temp = eval(c.data);
        io_->output(adr, ms.temp);
        ++stats_.mems[index].outputs;
        break;
    }

    if (cfg_.trace) {
        if (land(ms.opn, 5) == 5)
            cfg_.trace->memWrite(c.name, adr, ms.temp);
        if (land(ms.opn, 9) == 8)
            cfg_.trace->memRead(c.name, adr, ms.temp);
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
        ms.adr = eval(c->addr);
        ms.opn = eval(c->opn);
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

#include "sim/engine.hh"

namespace asim {

Engine::Engine(std::shared_ptr<const ResolvedSpec> rs,
               const EngineConfig &cfg)
    : rs_(std::move(rs)), cfg_(cfg), io_(cfg.io ? cfg.io : &nullIo_)
{
    stats_.mems.clear();
    for (const auto &m : rs_->mems) {
        MemStats ms;
        ms.name = rs_->name(m.name);
        stats_.mems.push_back(std::move(ms));
    }
    reserveSpareLine(stats_.mems);
    state_.reset(*rs_);
}

Engine::Engine(const ResolvedSpec &rs, const EngineConfig &cfg)
    : Engine(std::make_shared<const ResolvedSpec>(rs), cfg)
{}

void
Engine::reset()
{
    state_.reset(*rs_);
    stats_.reset();
    cycle_ = 0;
    io_->seekInputs(0);
}

void
Engine::run(uint64_t cycles)
{
    for (uint64_t i = 0; i < cycles; ++i)
        step();
}

EngineSnapshot
Engine::snapshot() const
{
    EngineSnapshot snap;
    snapshotInto(snap);
    return snap;
}

void
Engine::snapshotInto(EngineSnapshot &snap) const
{
    snap.state = state_;
    snap.cycle = cycle_;
    snap.stats = stats_;
    snap.ioValues = io_->inputsConsumed();
}

void
Engine::checkSnapshotShape(const EngineSnapshot &snap) const
{
    if (snap.state.vars.size() != state_.vars.size() ||
        snap.state.mems.size() != state_.mems.size()) {
        throw SimError("snapshot does not match this specification "
                       "(component counts differ)");
    }
    for (size_t i = 0; i < state_.mems.size(); ++i) {
        if (snap.state.mems[i].cells.size() !=
            state_.mems[i].cells.size()) {
            throw SimError("snapshot does not match this "
                           "specification (memory <" +
                           std::string(rs_->name(rs_->mems[i].name)) +
                           "> size differs)");
        }
    }
}

void
Engine::restore(const EngineSnapshot &snap)
{
    checkSnapshotShape(snap);
    state_ = snap.state;
    cycle_ = snap.cycle;
    stats_ = snap.stats;
    // Best-effort for devices that cannot seek (interactive streams):
    // the machine state is restored either way, matching the old
    // behavior for un-scripted runs.
    io_->seekInputs(snap.ioValues);
}

void
Engine::traceCycle()
{
    if (!cfg_.trace)
        return;
    cfg_.trace->beginCycle(cycle_);
    for (const auto &item : rs_->traceList)
        cfg_.trace->value(rs_->name(item.name), state_.vars[item.slot]);
    cfg_.trace->endCycle();
}

int32_t
Engine::value(std::string_view name) const
{
    const int slot = rs_->valueSlot(name);
    if (slot >= 0)
        return state_.vars[slot];
    throw unknownComponent(name);
}

int32_t
Engine::memCell(std::string_view mem, int64_t addr) const
{
    int mi = rs_->memIndex(mem);
    if (mi < 0)
        throw SimError("unknown memory <" + std::string(mem) + ">");
    const auto &cells = state_.mems[mi].cells;
    if (addr < 0 || addr >= static_cast<int64_t>(cells.size())) {
        throw SimError("address " + std::to_string(addr) +
                       " outside memory " + std::string(mem));
    }
    return cells[addr];
}

SimError
unknownComponent(std::string_view name)
{
    return SimError("unknown component <" + std::string(name) + ">");
}

SimError
selectorFault(std::string_view name, int32_t index, size_t cases,
              uint64_t cycle)
{
    return SimError("selector " + std::string(name) + " index " +
                    std::to_string(index) + " outside its " +
                    std::to_string(cases) + " cases (cycle " +
                    std::to_string(cycle) + ")");
}

SimError
memoryFault(std::string_view name, int32_t address, size_t size,
            uint64_t cycle)
{
    return SimError("memory " + std::string(name) + " address " +
                    std::to_string(address) + " outside 0.." +
                    std::to_string(size - 1) + " (cycle " +
                    std::to_string(cycle) + ")");
}

} // namespace asim

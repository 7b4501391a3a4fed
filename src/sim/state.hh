/**
 * @file
 * Machine state shared by all engines.
 *
 * Every value an expression can read lives in one flat array: the
 * combinational outputs, then each memory's output latch (the
 * thesis' temp<name>, "similar to the memory buffer register in
 * actual hardware"; ResolvedSpec::latchSlot). Each memory keeps its
 * cell array and the per-cycle address/operation latches.
 */

#ifndef ASIM_SIM_STATE_HH
#define ASIM_SIM_STATE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/resolve.hh"

namespace asim {

/** One memory's storage and input latches. */
struct MemoryState
{
    std::vector<int32_t> cells;
    int32_t adr = 0;   ///< latched address
    int32_t opn = 0;   ///< latched operation

    bool operator==(const MemoryState &) const = default;
};

/** Complete simulator state. */
struct MachineState
{
    /** The combinational outputs, then one output latch per memory. */
    std::vector<int32_t> vars;
    std::vector<MemoryState> mems;

    /** The memories' output latches: the last mems.size() values. */
    std::span<int32_t>
    latches()
    {
        return {vars.data() + (vars.size() - mems.size()), mems.size()};
    }
    std::span<const int32_t>
    latches() const
    {
        return {vars.data() + (vars.size() - mems.size()), mems.size()};
    }

    /** Size and zero/initialize all storage for `rs` ("All components
     *  are initialized to zero before simulation begins (except
     *  memories with initial values listed)"). */
    void reset(const ResolvedSpec &rs);

    bool operator==(const MachineState &) const = default;
};

} // namespace asim

#endif // ASIM_SIM_STATE_HH

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
inline constexpr size_t kCacheLine = 64;

/**
 * Give `v` at least one cache line of capacity past its last element
 * (past `size` elements, for a vector about to be filled),
 * so the next heap allocation's data never shares a line with v's.
 * Engines (batch instances, benchmark replicas) are built side by side
 * on one thread and run on others; an array one engine writes or
 * reads every cycle that shares a line with another engine's makes
 * every write a cache miss on the other thread (false sharing): one
 * such line slowed a sieve replica 1.5-6x. Copies (snapshots,
 * captured results) keep no spare.
 */
template <class T>
void
reserveSpareLine(std::vector<T> &v, size_t size)
{
    v.reserve(size + (kCacheLine + sizeof(T) - 1) / sizeof(T));
}

template <class T>
void
reserveSpareLine(std::vector<T> &v)
{
    reserveSpareLine(v, v.size());
}

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
     *  memories with initial values listed)"); `vars` and `mems` get a
     *  spare cache line (reserveSpareLine). */
    void reset(const ResolvedSpec &rs);

    bool operator==(const MachineState &) const = default;
};

} // namespace asim

#endif // ASIM_SIM_STATE_HH

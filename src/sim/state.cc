#include "sim/state.hh"

#include <algorithm>

namespace asim {

void
MachineState::reset(const ResolvedSpec &rs)
{
    vars.assign(static_cast<size_t>(rs.numVarSlots) + rs.mems.size(), 0);
    mems.clear();
    mems.resize(rs.mems.size());
    for (size_t i = 0; i < rs.mems.size(); ++i) {
        const MemDesc &m = rs.mems[i];
        mems[i].cells.assign(static_cast<size_t>(m.size), 0);
        const std::span<const int32_t> init = rs.init(m);
        std::copy(init.begin(), init.end(), mems[i].cells.begin());
    }
}

} // namespace asim

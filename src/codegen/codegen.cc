#include "codegen/codegen.hh"

#include <sstream>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

CodegenContext::CodegenContext(const ResolvedSpec &rs,
                               std::string varPrefix,
                               std::string tempPrefix)
    : rs_(rs),
      varPrefix_(std::move(varPrefix)),
      tempPrefix_(std::move(tempPrefix))
{
    slotNames_.resize(rs.numVarSlots + rs.mems.size());
    for (const CombComp &c : rs.comb)
        slotNames_[c.slot] = rs.name(c.name);
    for (const MemDesc &m : rs.mems)
        slotNames_[rs.latchSlot(m.index)] = rs.name(m.name);
}

std::string
CodegenContext::varName(int slot) const
{
    return varPrefix_ + slotNames_[slot];
}

std::string
CodegenContext::memArrayName(int idx) const
{
    return varPrefix_ + slotNames_[rs_.latchSlot(idx)];
}

std::string
CodegenContext::tempName(int idx) const
{
    return tempPrefix_ + slotNames_[rs_.latchSlot(idx)];
}

std::string
CodegenContext::valueName(int slot) const
{
    return slot < rs_.numVarSlots ? varName(slot)
                                  : tempName(slot - rs_.numVarSlots);
}

std::string
CodegenContext::paren(const std::string &rendered)
{
    if (rendered.find(" + ") == std::string::npos)
        return rendered;
    return "(" + rendered + ")";
}

std::string
CodegenContext::renderExpr(const ResolvedExpr &e,
                           const std::string &divKeyword) const
{
    if (e.isConstant())
        return std::to_string(e.constTotal);

    std::ostringstream os;
    bool first = true;
    // Thesis `expr` scans right-to-left, so the rightmost source term
    // is rendered first and the folded constant comes last.
    const std::span<const ResolvedTerm> terms = rs_.terms(e);
    for (auto it = terms.rbegin(); it != terms.rend(); ++it) {
        const ResolvedTerm &t = *it;
        if (!first)
            os << " + ";
        first = false;

        const std::string name = valueName(t.slot);
        if (t.whole()) {
            os << name;
            if (t.shift > 0)
                os << " * " << highbit(t.shift);
        } else {
            os << "land(" << name << ", " << t.mask << ")";
            if (t.shift < 0)
                os << ' ' << divKeyword << ' ' << highbit(-t.shift);
            else if (t.shift > 0)
                os << " * " << highbit(t.shift);
        }
    }
    if (e.constTotal != 0)
        os << " + " << e.constTotal;
    return os.str();
}

} // namespace asim

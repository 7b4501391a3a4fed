#include "analysis/fault.hh"

#include "analysis/resolve.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

namespace {

/** Build a one-term constant expression in `spec`. */
Expr
constExpr(Spec &spec, int32_t value)
{
    Term t;
    t.kind = Term::Kind::Const;
    t.value = value;
    return spec.addExpr({&t, 1});
}

/** Build a whole-component reference expression in `spec`. */
Expr
refExpr(Spec &spec, NameId name)
{
    Term t;
    t.kind = Term::Kind::Ref;
    t.ref = name;
    return spec.addExpr({&t, 1});
}

[[noreturn]] void
throwBitRange(int bit)
{
    throw SpecError("Error. Fault bit " + std::to_string(bit) +
                    " out of range 0.." + std::to_string(kMaxBits - 1) +
                    ".");
}

} // namespace

const FaultPolicy &
faultPolicy(std::string_view name)
{
    for (const FaultPolicy &p : kFaultPolicies)
        if (p.name == name)
            return p;
    std::string known;
    for (const FaultPolicy &p : kFaultPolicies)
        known.append(known.empty() ? "" : ", ").append(p.name);
    throw SpecError("Error. Unknown fault injector <" + std::string(name) +
                    ">; registered injectors: " + known + ".");
}

Spec
spliceFault(const Spec &spec, const FaultSite &site)
{
    const FaultPolicy &policy = faultPolicy(site.mode);
    if (site.bit < 0 || site.bit >= kMaxBits)
        throwBitRange(site.bit);

    Spec out = spec;
    Component *victim = out.find(site.component);
    if (!victim) {
        throw SpecError("Error. Component <" + site.component +
                        "> not found.");
    }

    const std::string shadow = site.component + "FAULTED";
    if (out.find(shadow)) {
        throw SpecError("Error. Component " + shadow +
                        " already exists.");
    }
    const NameId name = victim->name;
    const NameId shadowId = out.names.intern(shadow);
    victim->name = shadowId;

    // Splice: name = shadow <function> mask, e.g.
    //         name = shadow AND ~bit   (set0)
    //         name = shadow OR   bit   (set1)
    //         name = shadow XOR  bit   (toggle)
    const Expr funct = constExpr(out, policy.function);
    const Expr left = refExpr(out, shadowId);
    const Expr right = constExpr(out, policy.mask(site.bit));
    const Expr exprs[] = {funct, left, right};
    out.comps.push_back(out.makeComponent(CompKind::Alu, name, exprs));

    // The shadow needs a declaration entry (untraced); the original
    // declaration keeps tracing the *observed* (faulty) value.
    out.decls.push_back(DeclName{shadowId, false});
    return out;
}

// ---------------------------------------------------------------------
// Fault grammar — the shared parse/validation path
// ---------------------------------------------------------------------

namespace {

[[noreturn]] void
throwBadFault(const std::string &text, const std::string &why)
{
    throw SpecError("Error. Bad fault <" + text + ">: " + why +
                    " (want component[cell]:bit:mode[@cycle]).");
}

[[noreturn]] void
throwCellNeedsCycle(const std::string &component)
{
    throw SpecError("Error. Cell faults need @cycle (a spec splice "
                    "can only observe component <" + component +
                    ">'s output).");
}

/** strtoll wrapper: all of `s` must be a decimal integer. */
bool
parseInt(const std::string &s, long long *out)
{
    if (s.empty())
        return false;
    size_t used = 0;
    try {
        *out = std::stoll(s, &used, 10);
    } catch (const std::exception &) {
        return false;
    }
    return used == s.size();
}

} // namespace

FaultSite
parseFaultSite(const std::string &text)
{
    FaultSite site;

    std::string body = text;
    if (auto at = body.rfind('@'); at != std::string::npos) {
        long long cycle = 0;
        if (!parseInt(body.substr(at + 1), &cycle) || cycle < 0)
            throwBadFault(text, "cycle must be a non-negative integer");
        site.atCycle = true;
        site.cycle = static_cast<uint64_t>(cycle);
        body.resize(at);
    }

    // component[cell] : bit : mode — split on the *last* two colons
    // so component names stay unconstrained.
    auto modeColon = body.rfind(':');
    if (modeColon == std::string::npos)
        throwBadFault(text, "missing :bit:mode");
    auto bitColon = body.rfind(':', modeColon - 1);
    if (bitColon == std::string::npos || bitColon == 0)
        throwBadFault(text, "missing :bit:mode");

    site.mode = body.substr(modeColon + 1);
    if (site.mode.empty())
        throwBadFault(text, "missing mode");

    long long bit = 0;
    if (!parseInt(body.substr(bitColon + 1, modeColon - bitColon - 1),
                  &bit))
        throwBadFault(text, "bit must be an integer");
    if (bit < 0 || bit >= kMaxBits)
        throwBitRange(static_cast<int>(bit));
    site.bit = static_cast<int>(bit);

    site.component = body.substr(0, bitColon);
    if (auto open = site.component.find('[');
        open != std::string::npos) {
        if (site.component.back() != ']')
            throwBadFault(text, "unterminated cell address");
        long long cell = 0;
        if (!parseInt(site.component.substr(
                          open + 1,
                          site.component.size() - open - 2),
                      &cell) ||
            cell < 0)
            throwBadFault(text,
                          "cell must be a non-negative integer");
        site.cell = cell;
        site.component.resize(open);
    }
    if (site.component.empty())
        throwBadFault(text, "missing component");
    if (site.cell >= 0 && !site.atCycle)
        throwCellNeedsCycle(site.component);
    return site;
}

std::string
formatFaultSite(const FaultSite &site)
{
    std::string out = site.component;
    if (site.cell >= 0)
        out += "[" + std::to_string(site.cell) + "]";
    out += ":" + std::to_string(site.bit) + ":" + site.mode;
    if (site.atCycle)
        out += "@" + std::to_string(site.cycle);
    return out;
}

void
validateFaultSite(const ResolvedSpec &rs, const FaultSite &site)
{
    faultPolicy(site.mode); // throws unknown
    if (site.bit < 0 || site.bit >= kMaxBits)
        throwBitRange(site.bit);

    const int mem = rs.memIndex(site.component);
    if (mem < 0 && rs.varSlot(site.component) < 0) {
        throw SpecError("Error. Component <" + site.component +
                        "> not found.");
    }

    if (site.cell >= 0) {
        if (mem < 0) {
            throw SpecError("Error. Component <" + site.component +
                            "> is not a memory; cell faults need a "
                            "memory.");
        }
        if (site.cell >= rs.mems[static_cast<size_t>(mem)].size) {
            throw SpecError(
                "Error. Fault cell " + std::to_string(site.cell) +
                " out of range for memory <" + site.component +
                "> (size " +
                std::to_string(rs.mems[static_cast<size_t>(mem)].size) +
                ").");
        }
        if (!site.atCycle)
            throwCellNeedsCycle(site.component);
    }

    if (site.atCycle && mem < 0) {
        throw SpecError("Error. Component <" + site.component +
                        "> holds no state; @cycle faults need a "
                        "memory (omit @cycle to splice a stuck "
                        "bit).");
    }
}

} // namespace asim

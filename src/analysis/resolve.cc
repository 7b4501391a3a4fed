#include "analysis/resolve.hh"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "analysis/depgraph.hh"
#include "analysis/width.hh"
#include "lang/alu_ops.hh"
#include "lang/parser.hh"
#include "lang/writer.hh"
#include "support/bitops.hh"
#include "support/serialize.hh"

namespace asim {

namespace {

/** Context for expression resolution: name -> (kind, slot). Keys are
 *  views into strings owned by the spec being resolved (alive for the
 *  whole resolve), and the map is a hash table: resolution does one
 *  lookup per reference term, which on a 100k+-component corpus spec
 *  made ordered-map string compares the dominant resolve cost. */
struct NameMap
{
    std::unordered_map<std::string_view, std::pair<CompKind, int>> map;
};

/**
 * Resolve one expression. Mirrors the thesis' `expr` procedure: scan
 * terms right-to-left, accumulating the bit position (`numbits`);
 * constants fold into `constTotal`; references become masked+shifted
 * terms. Errors on unknown components and on widths beyond 31 bits.
 */
ResolvedExpr
resolveExprImpl(const Expr &expr, const NameMap &names)
{
    ResolvedExpr out;

    int numbits = 0;
    // Right-to-left accumulation, exactly like the thesis.
    std::vector<ResolvedTerm> reversed;
    for (auto it = expr.terms.rbegin(); it != expr.terms.rend(); ++it) {
        const Term &t = *it;
        switch (t.kind) {
          case Term::Kind::Const:
            if (t.width >= 0) {
                out.constTotal = wadd(
                    out.constTotal,
                    shiftField(land(t.value, lowMask(t.width)), numbits));
                numbits += t.width;
            } else {
                out.constTotal =
                    wadd(out.constTotal, shiftField(t.value, numbits));
                numbits = kMaxBits;
            }
            break;
          case Term::Kind::BitString:
            out.constTotal =
                wadd(out.constTotal, shiftField(t.value, numbits));
            numbits += t.width;
            break;
          case Term::Kind::Ref: {
            auto nit = names.map.find(t.ref);
            if (nit == names.map.end()) {
                throw SpecError("Error. Component <" + t.ref +
                                "> not found.");
            }
            ResolvedTerm rt;
            rt.bank = nit->second.first == CompKind::Memory
                          ? ResolvedTerm::Bank::MemTemp
                          : ResolvedTerm::Bank::Var;
            rt.slot = nit->second.second;
            if (t.from < 0) {
                rt.whole = true;
                rt.mask = -1;
                rt.from = 0;
                rt.shift = numbits;
                rt.fieldWidth = kMaxBits;
                numbits = kMaxBits;
            } else {
                int to = t.to < 0 ? t.from : t.to;
                rt.whole = false;
                rt.mask = maskBits(t.from, to);
                rt.from = t.from;
                rt.shift = numbits - t.from;
                rt.fieldWidth = to - t.from + 1;
                numbits += rt.fieldWidth;
            }
            reversed.push_back(rt);
            break;
          }
        }
        if (numbits > kMaxBits) {
            throw SpecError("Error. Too many bits in " +
                            exprToString(expr) + ".");
        }
    }
    out.width = numbits;
    // Store leftmost-first for readable codegen.
    out.terms.assign(reversed.rbegin(), reversed.rend());
    return out;
}

MemDesc::TraceMode
traceModeFor(const MemDesc &m, int minWidth, int32_t checkMask,
             int32_t checkValue)
{
    // Thesis gencode: emit a runtime-checked trace statement when the
    // operation expression is non-constant and wide enough to carry
    // the flag bit (`numberofbits`); decide statically when it is
    // constant. Writes trace when opn&5 == 5, reads when opn&9 == 8.
    if (!m.opnConst) {
        return m.opnWidth >= minWidth ? MemDesc::TraceMode::Runtime
                                      : MemDesc::TraceMode::Never;
    }
    return land(m.opnValue, checkMask) == checkValue
               ? MemDesc::TraceMode::Always
               : MemDesc::TraceMode::Never;
}

} // namespace

int
ResolvedSpec::varSlot(std::string_view name) const
{
    auto it = varSlots.find(name);
    return it == varSlots.end() ? -1 : it->second;
}

int
ResolvedSpec::memIndex(std::string_view name) const
{
    auto it = memIndexes.find(name);
    return it == memIndexes.end() ? -1 : it->second;
}

Spec
ResolvedSpec::ast() const
{
    return parseSpec(text);
}

ResolvedSpec
resolve(const Spec &spec, Diagnostics *diag)
{
    ResolvedSpec rs;

    // Assign slots: combinational outputs get var slots, memories get
    // memory indexes, both in declaration order. The name index built
    // here answers every per-name question below. A name defined twice
    // is an error (stricter than the thesis, which silently used the
    // last definition).
    NameMap names;
    names.map.reserve(spec.comps.size());
    for (const auto &c : spec.comps) {
        auto &ids = c.kind == CompKind::Memory ? rs.memIndexes : rs.varSlots;
        const int id = static_cast<int>(ids.size());
        if (!names.map.emplace(c.name, std::make_pair(c.kind, id)).second) {
            throw SpecError("Error. Component " + c.name +
                            " defined twice.");
        }
        ids.emplace(c.name, id);
    }
    rs.numVarSlots = static_cast<int>(rs.varSlots.size());

    // checkdcl: declared but not defined / defined but not declared.
    // Both questions are hash probes (the name index above answers
    // "defined?"), so the check stays linear in the spec's size.
    if (diag) {
        std::unordered_set<std::string_view> declared;
        declared.reserve(spec.decls.size());
        for (const auto &d : spec.decls) {
            declared.insert(d.name);
            if (!names.map.count(d.name)) {
                diag->warn("Warning: " + d.name +
                           " declared but not defined.");
            }
        }
        for (const auto &c : spec.comps) {
            if (!declared.count(c.name)) {
                diag->warn("Warning: " + c.name +
                           " defined but not declared.");
            }
        }
    }

    // Order the combinational network (throws on cycles).
    std::vector<int> order = orderCombinational(spec.comps);

    for (int idx : order) {
        const Component &c = spec.comps[idx];
        CombComp cc;
        cc.kind = c.kind;
        cc.name = c.name;
        cc.slot = names.map.at(c.name).second;
        cc.declIndex = idx;
        if (c.kind == CompKind::Alu) {
            cc.funct = resolveExprImpl(c.funct, names);
            cc.left = resolveExprImpl(c.left, names);
            cc.right = resolveExprImpl(c.right, names);
            cc.functConst = cc.funct.isConstant();
            if (cc.functConst) {
                cc.functValue = cc.funct.constTotal;
                if (!validAluFunction(cc.functValue)) {
                    throw SpecError(
                        "Error. ALU " + c.name + " has constant function "
                        + std::to_string(cc.functValue) +
                        " outside 0..13.");
                }
            }
        } else {
            cc.select = resolveExprImpl(c.select, names);
            for (const auto &e : c.cases)
                cc.cases.push_back(resolveExprImpl(e, names));
        }
        rs.comb.push_back(std::move(cc));
    }

    for (int idx = 0; idx < static_cast<int>(spec.comps.size()); ++idx) {
        const Component &c = spec.comps[idx];
        if (c.kind != CompKind::Memory)
            continue;
        MemDesc m;
        m.name = c.name;
        m.index = names.map.at(c.name).second;
        m.declIndex = idx;
        m.addr = resolveExprImpl(c.addr, names);
        m.data = resolveExprImpl(c.data, names);
        m.opn = resolveExprImpl(c.opn, names);
        m.opnConst = m.opn.isConstant();
        if (m.opnConst)
            m.opnValue = m.opn.constTotal;
        m.opnWidth = widthOf(c.opn);
        m.size = c.memSize;
        m.init = c.init;
        if (!m.init.empty() &&
            static_cast<int64_t>(m.init.size()) != m.size) {
            throw SpecError("Error. Memory " + c.name + " declares " +
                            std::to_string(m.size) + " cells but has " +
                            std::to_string(m.init.size()) +
                            " initial values.");
        }
        m.traceWrites = traceModeFor(m, 3, 5, 5);
        m.traceReads = traceModeFor(m, 4, 9, 8);
        rs.mems.push_back(std::move(m));
    }

    // Build the per-cycle trace list from the starred declarations.
    for (const auto &d : spec.decls) {
        if (!d.traced)
            continue;
        auto it = names.map.find(d.name);
        if (it == names.map.end()) {
            if (diag)
                diag->warn("Warning: " + d.name + " traced but not defined.");
            continue;
        }
        TraceItem item;
        item.name = d.name;
        item.isMem = it->second.first == CompKind::Memory;
        item.slot = it->second.second;
        rs.traceList.push_back(std::move(item));
    }

    rs.comment = spec.comment;
    rs.cycles = spec.cycles;
    rs.cyclesSpecified = spec.cyclesSpecified;
    rs.text = writeSpec(spec);
    rs.identity = fnv1a64(rs.text);
    return rs;
}

ResolvedSpec
resolveText(std::string_view text, Diagnostics *diag)
{
    return resolve(parseSpec(text, diag), diag);
}

ResolvedExpr
resolveExpr(const Expr &expr, const ResolvedSpec &rs)
{
    NameMap names;
    names.map.reserve(rs.comb.size() + rs.mems.size());
    for (const CombComp &c : rs.comb)
        names.map.emplace(c.name, std::make_pair(c.kind, c.slot));
    for (const MemDesc &m : rs.mems)
        names.map.emplace(m.name, std::make_pair(CompKind::Memory, m.index));
    return resolveExprImpl(expr, names);
}

} // namespace asim

#include "analysis/resolve.hh"

#include <algorithm>
#include <string_view>

#include "analysis/depgraph.hh"
#include "analysis/width.hh"
#include "lang/alu_ops.hh"
#include "lang/parser.hh"
#include "lang/writer.hh"
#include "support/bitops.hh"

namespace asim {

namespace {

/**
 * Resolve expression `expr` of `spec` into `rs`'s pools. Mirrors the
 * thesis' `expr` procedure: scan terms right-to-left, accumulating the
 * bit position (`numbits`); constants fold into `constTotal`;
 * references become masked+shifted terms. `bind(name)` answers the
 * value slot a reference reads (throwing on an unknown component).
 * Errors on widths beyond 31 bits.
 */
template <class Bind>
ResolvedExpr
resolveExprImpl(const Spec &spec, Expr expr, ResolvedSpec &rs, Bind bind)
{
    ResolvedExpr out;
    out.first = static_cast<uint32_t>(rs.termPool.size());

    int numbits = 0;
    // Right-to-left accumulation, exactly like the thesis; the terms
    // are appended in that order and reversed at the end.
    const std::span<const Term> terms = spec.terms(expr);
    for (auto it = terms.rbegin(); it != terms.rend(); ++it) {
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
            ResolvedTerm rt;
            rt.slot = bind(t.ref);
            if (t.from < 0) {
                rt.mask = -1;
                rt.shift = static_cast<int8_t>(numbits);
                numbits = kMaxBits;
            } else {
                int to = t.to < 0 ? t.from : t.to;
                rt.mask = maskBits(t.from, to);
                rt.shift = static_cast<int8_t>(numbits - t.from);
                numbits += to - t.from + 1;
            }
            rs.termPool.push_back(rt);
            break;
          }
        }
        if (numbits > kMaxBits) {
            throw SpecError("Error. Too many bits in " +
                            exprToString(spec, expr) + ".");
        }
    }
    out.width = numbits;
    out.count = static_cast<uint32_t>(rs.termPool.size()) - out.first;
    // Store leftmost-first for readable codegen.
    std::reverse(rs.termPool.begin() + out.first, rs.termPool.end());
    return out;
}

[[noreturn]] void
notFound(std::string_view name)
{
    throw SpecError("Error. Component <" + std::string(name) +
                    "> not found.");
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

const ResolvedSpec::Binding *
ResolvedSpec::binding(std::string_view name) const
{
    const NameId id = names.find(name);
    if (id == kNoName || bindings[id].slot < 0)
        return nullptr;
    return &bindings[id];
}

int
ResolvedSpec::varSlot(std::string_view name) const
{
    const Binding *b = binding(name);
    return b && b->kind != CompKind::Memory ? b->slot : -1;
}

int
ResolvedSpec::memIndex(std::string_view name) const
{
    const Binding *b = binding(name);
    return b && b->kind == CompKind::Memory ? b->slot : -1;
}

int
ResolvedSpec::valueSlot(std::string_view name) const
{
    const Binding *b = binding(name);
    if (!b)
        return -1;
    return b->kind == CompKind::Memory ? latchSlot(b->slot) : b->slot;
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
    // memory indexes, both in declaration order. The resolved spec
    // keeps the syntax tree's names, so a term's NameId indexes the
    // bindings directly and this one index answers every per-name
    // question below. A name defined twice is an error (stricter than
    // the thesis, which silently used the last definition).
    rs.names = spec.names;
    rs.bindings.assign(rs.names.size(), {});
    int numMems = 0;
    for (const auto &c : spec.comps) {
        ResolvedSpec::Binding &b = rs.bindings[c.name];
        if (b.slot >= 0) {
            throw SpecError("Error. Component " +
                            std::string(spec.name(c.name)) +
                            " defined twice.");
        }
        b.kind = c.kind;
        b.slot = c.kind == CompKind::Memory ? numMems++ : rs.numVarSlots++;
    }
    auto defined = [&rs](NameId id) { return rs.bindings[id].slot >= 0; };

    // checkdcl: declared but not defined / defined but not declared.
    // Both questions are array lookups by NameId, so the check stays
    // linear in the spec's size.
    if (diag) {
        std::vector<char> declared(rs.names.size(), 0);
        for (const auto &d : spec.decls) {
            declared[d.name] = 1;
            if (!defined(d.name)) {
                diag->warn("Warning: " + std::string(spec.name(d.name)) +
                           " declared but not defined.");
            }
        }
        for (const auto &c : spec.comps) {
            if (!declared[c.name]) {
                diag->warn("Warning: " + std::string(spec.name(c.name)) +
                           " defined but not declared.");
            }
        }
    }

    // Order the combinational network (throws on cycles).
    std::vector<int> order = orderCombinational(spec);

    // Room for one resolved expression per expression and one
    // resolved term per term: the syntax tree's pool sizes bound both,
    // and capacity the pools never fill is never touched.
    rs.exprPool.reserve(spec.exprPool.size());
    rs.termPool.reserve(spec.termPool.size());
    rs.comb.reserve(order.size());
    rs.mems.reserve(static_cast<size_t>(numMems));

    auto bind = [&](NameId name) {
        if (!defined(name))
            notFound(spec.name(name));
        const ResolvedSpec::Binding &b = rs.bindings[name];
        return b.kind == CompKind::Memory ? rs.latchSlot(b.slot) : b.slot;
    };
    auto resolveInputs = [&](const Component &c) {
        const auto first = static_cast<uint32_t>(rs.exprPool.size());
        for (Expr e : spec.exprs(c))
            rs.exprPool.push_back(resolveExprImpl(spec, e, rs, bind));
        return first;
    };

    for (int idx : order) {
        const Component &c = spec.comps[idx];
        CombComp cc;
        cc.kind = c.kind;
        cc.name = c.name;
        cc.slot = rs.bindings[c.name].slot;
        cc.declIndex = idx;
        cc.firstExpr = resolveInputs(c);
        cc.numExprs = c.numExprs;
        if (c.kind == CompKind::Alu) {
            const ResolvedExpr &funct = rs.funct(cc);
            cc.functConst = funct.isConstant();
            if (cc.functConst) {
                cc.functValue = funct.constTotal;
                if (!validAluFunction(cc.functValue)) {
                    throw SpecError(
                        "Error. ALU " + std::string(spec.name(c.name)) +
                        " has constant function " +
                        std::to_string(cc.functValue) + " outside 0..13.");
                }
            }
        }
        rs.comb.push_back(cc);
    }

    for (int idx = 0; idx < static_cast<int>(spec.comps.size()); ++idx) {
        const Component &c = spec.comps[idx];
        if (c.kind != CompKind::Memory)
            continue;
        MemDesc m;
        m.name = c.name;
        m.index = rs.bindings[c.name].slot;
        m.declIndex = idx;
        m.addr = resolveExprImpl(spec, spec.expr(c, 0), rs, bind);
        m.data = resolveExprImpl(spec, spec.expr(c, 1), rs, bind);
        m.opn = resolveExprImpl(spec, spec.expr(c, 2), rs, bind);
        m.opnConst = m.opn.isConstant();
        if (m.opnConst)
            m.opnValue = m.opn.constTotal;
        m.opnWidth = widthOf(spec.terms(spec.expr(c, 2)));
        m.size = c.memSize;
        if (c.numInit && static_cast<int64_t>(c.numInit) != m.size) {
            throw SpecError("Error. Memory " +
                            std::string(spec.name(c.name)) + " declares " +
                            std::to_string(m.size) + " cells but has " +
                            std::to_string(c.numInit) +
                            " initial values.");
        }
        m.firstInit = static_cast<uint32_t>(rs.initPool.size());
        m.numInit = c.numInit;
        const std::span<const int32_t> init = spec.init(c);
        rs.initPool.insert(rs.initPool.end(), init.begin(), init.end());
        m.traceWrites = traceModeFor(m, 3, 5, 5);
        m.traceReads = traceModeFor(m, 4, 9, 8);
        rs.mems.push_back(m);
    }

    // Build the per-cycle trace list from the starred declarations.
    for (const auto &d : spec.decls) {
        if (!d.traced)
            continue;
        if (!defined(d.name)) {
            if (diag) {
                diag->warn("Warning: " + std::string(spec.name(d.name)) +
                           " traced but not defined.");
            }
            continue;
        }
        TraceItem item;
        item.name = d.name;
        item.slot = bind(d.name);
        rs.traceList.push_back(item);
    }

    rs.comment = spec.comment;
    rs.cycles = spec.cycles;
    rs.cyclesSpecified = spec.cyclesSpecified;
    rs.text = writeSpec(spec, &rs.identity);
    return rs;
}

ResolvedSpec
resolveText(std::string_view text, Diagnostics *diag)
{
    return resolve(parseSpec(text, diag), diag);
}

ResolvedExpr
resolveExpr(const Spec &spec, Expr expr, ResolvedSpec &rs)
{
    return resolveExprImpl(spec, expr, rs, [&](NameId name) {
        const int slot = rs.valueSlot(spec.name(name));
        if (slot < 0)
            notFound(spec.name(name));
        return slot;
    });
}

} // namespace asim

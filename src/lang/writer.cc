#include "lang/writer.hh"

#include "support/text.hh"

namespace asim {

namespace {

void
appendComponent(std::string &out, const Spec &spec, const Component &comp)
{
    out += compKindLetter(comp.kind);
    out += ' ';
    out += spec.name(comp.name);
    for (Expr e : spec.exprs(comp)) {
        out += ' ';
        appendExpr(out, spec, e);
    }
    if (comp.kind != CompKind::Memory)
        return;
    if (comp.numInit) {
        out += " -";
        appendInt(out, comp.memSize);
        for (int32_t v : spec.init(comp)) {
            out += ' ';
            appendInt(out, v);
        }
    } else {
        out += ' ';
        appendInt(out, comp.memSize);
    }
}

} // namespace

std::string
writeComponent(const Spec &spec, const Component &comp)
{
    std::string out;
    appendComponent(out, spec, comp);
    return out;
}

std::string
writeSpec(const Spec &spec)
{
    std::string out;
    out += '#';
    out += spec.comment;
    out += '\n';
    if (spec.cyclesSpecified) {
        out += "= ";
        appendInt(out, spec.cycles);
        out += '\n';
    }
    for (const auto &d : spec.decls) {
        out += spec.name(d.name);
        if (d.traced)
            out += '*';
        out += '\n';
    }
    out += ".\n";
    for (const auto &c : spec.comps) {
        appendComponent(out, spec, c);
        out += '\n';
    }
    out += ".\n";
    return out;
}

} // namespace asim

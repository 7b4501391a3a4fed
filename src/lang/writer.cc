#include "lang/writer.hh"

#include "support/text.hh"

namespace asim {

namespace {

void
appendComponent(std::string &out, const Component &comp)
{
    out += compKindLetter(comp.kind);
    out += ' ';
    out += comp.name;
    auto field = [&out](const Expr &e) {
        out += ' ';
        appendExpr(out, e);
    };
    switch (comp.kind) {
      case CompKind::Alu:
        field(comp.funct);
        field(comp.left);
        field(comp.right);
        break;
      case CompKind::Selector:
        field(comp.select);
        for (const auto &c : comp.cases)
            field(c);
        break;
      case CompKind::Memory:
        field(comp.addr);
        field(comp.data);
        field(comp.opn);
        if (!comp.init.empty()) {
            out += " -";
            appendInt(out, comp.memSize);
            for (int32_t v : comp.init) {
                out += ' ';
                appendInt(out, v);
            }
        } else {
            out += ' ';
            appendInt(out, comp.memSize);
        }
        break;
    }
}

} // namespace

std::string
writeComponent(const Component &comp)
{
    std::string out;
    appendComponent(out, comp);
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
        out += d.name;
        if (d.traced)
            out += '*';
        out += '\n';
    }
    out += ".\n";
    for (const auto &c : spec.comps) {
        appendComponent(out, c);
        out += '\n';
    }
    out += ".\n";
    return out;
}

} // namespace asim

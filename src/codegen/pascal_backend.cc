#include "codegen/pascal_backend.hh"

#include <sstream>

#include "support/bitops.hh"

namespace asim {

PascalBackend::PascalBackend(const ResolvedSpec &rs,
                             const CodegenOptions &opts)
    : rs_(rs), opts_(opts), ctx_(rs, "ljb", "temp")
{}

std::string
PascalBackend::expr(const ResolvedExpr &e) const
{
    return ctx_.renderExpr(e, "div");
}

void
PascalBackend::emitHeader()
{
    ln("program " + opts_.programName + " (input, output);");
    ln("{#" + rs_.comment + "}");
}

void
PascalBackend::emitVarDecls()
{
    // One long var list: combinational outputs, then per-memory
    // temp/adr/data/opn scalars, exactly like Appendix E.
    std::ostringstream os;
    os << "var ";
    bool first = true;
    auto add = [&](const std::string &name) {
        if (!first)
            os << ", ";
        first = false;
        os << name;
    };
    for (int slot = 0; slot < rs_.numVarSlots; ++slot)
        add(ctx_.varName(slot));
    for (const auto &m : rs_.mems) {
        add(ctx_.tempName(m.index));
        add("adr" + ctx_.name(m));
        if (opts_.emitDataLatchQuirk)
            add("data" + ctx_.name(m));
        add("opn" + ctx_.name(m));
    }
    os << ": integer;";
    ln(os.str());
    ln("    cycles, cyclecount: integer;");
    for (const auto &m : rs_.mems) {
        ln("    " + ctx_.memArrayName(m.index) + ": array[0.." +
           std::to_string(m.size - 1) + "] of integer;");
    }
}

void
PascalBackend::emitLand()
{
    ln("");
    ln("function land (a, b: integer): integer;");
    ln("type bitnos = 0..31;");
    ln("     bigset = set of bitnos;");
    ln("var intset: record case boolean of");
    ln("            false: (i, j: integer);");
    ln("            true: (x, y: bigset)");
    ln("            end;");
    ln("begin");
    ln("    with intset do begin");
    ln("        i := a;");
    ln("        j := b;");
    ln("        x := x * y;");
    ln("        land := i");
    ln("    end");
    ln("end {land};");
}

void
PascalBackend::emitInitValues()
{
    ln("");
    ln("procedure initvalues;");
    ln("var i: integer;");
    ln("begin");
    for (const auto &m : rs_.mems) {
        const std::string arr = ctx_.memArrayName(m.index);
        if (!rs_.init(m).empty()) {
            for (size_t i = 0; i < rs_.init(m).size(); ++i) {
                ln("    " + arr + "[" + std::to_string(i) +
                   "] := " + std::to_string(rs_.init(m)[i]) + ";");
            }
        } else {
            ln("    for i := 0 to " + std::to_string(m.size - 1) +
               " do");
            ln("        " + arr + "[i] := 0;");
        }
        ln("    " + ctx_.tempName(m.index) + " := 0;");
    }
    ln("end; {initvalues}");
}

void
PascalBackend::emitDologic()
{
    ln("");
    ln("function dologic (funct, left, right: integer): integer;");
    ln("const mask = " + std::to_string(kValueMask) + ";");
    ln("var value: integer;");
    ln("begin");
    ln("    value := 0;");
    ln("    case funct of");
    ln("      0 : value := 0;");
    ln("      1 : value := right;");
    ln("      2 : value := left;");
    ln("      3 : value := mask - left;");
    ln("      4 : value := left + right;");
    ln("      5 : value := left - right;");
    if (opts_.aluSemantics == AluSemantics::Thesis) {
        ln("      6 : while (right > 0) and (left <> 0) do begin");
        ln("              left := land(left + left, mask);");
        ln("              value := left;");
        ln("              right := right - 1;");
        ln("          end;");
    } else {
        ln("      6 : begin");
        ln("              value := land(left, mask);");
        ln("              while (right > 0) and (value <> 0) do begin");
        ln("                  value := land(value + value, mask);");
        ln("                  right := right - 1;");
        ln("              end;");
        ln("          end;");
    }
    ln("      7 : value := left * right;");
    ln("      8 : value := land(left, right);");
    ln("      9 : value := left + right - land(left, right);");
    ln("      10: value := left + right - land(left, right) * 2;");
    ln("      11: value := 0;");
    ln("      12: if left = right then value := 1;");
    ln("      13: if left < right then value := 1");
    ln("    end; {case}");
    ln("    dologic := value;");
    ln("end; {dologic}");
}

void
PascalBackend::emitIoProcs()
{
    ln("");
    ln("function sinput (address: integer): integer;");
    ln("var datum: char;");
    ln("    data: integer;");
    ln("begin");
    ln("    if address = 0 then begin");
    ln("        read(input, datum);");
    ln("        sinput := ord(datum)");
    ln("    end");
    ln("    else if address = 1 then begin");
    ln("        read(input, data);");
    ln("        sinput := data");
    ln("    end");
    ln("    else begin");
    ln("        write(output, 'Input from address ', address:1, ': ');");
    ln("        readln(input, data);");
    ln("        sinput := data;");
    ln("    end");
    ln("end; {sinput}");
    ln("");
    ln("procedure soutput (address, data: integer);");
    ln("begin");
    ln("    if address = 0 then writeln(output, chr(data))");
    ln("    else if address = 1 then writeln(output, data)");
    ln("    else writeln(output, 'Output to address ', address:1,");
    ln("                 ': ', data:1)");
    ln("end; {soutput}");
}

void
PascalBackend::emitAlu(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    const std::string l = expr(rs_.left(c));
    const std::string r = expr(rs_.right(c));
    const std::string lp = CodegenContext::paren(l);
    const std::string rp = CodegenContext::paren(r);

    if (!c.functConst || !opts_.inlineConstAlu) {
        ln(dst + " := dologic(" + expr(rs_.funct(c)) + ", " + l + ", " + r +
           ");");
        return;
    }

    switch (c.functValue) {
      case kAluZero:
      case kAluUnused:
        ln(dst + " := 0;");
        break;
      case kAluRight:
        ln(dst + " := " + r + ";");
        break;
      case kAluLeft:
        ln(dst + " := " + l + ";");
        break;
      case kAluNot:
        ln(dst + " := " + std::to_string(kValueMask) + " - " + lp +
           ";");
        break;
      case kAluAdd:
        ln(dst + " := " + l + " + " + r + ";");
        break;
      case kAluSub:
        ln(dst + " := " + l + " - " + rp + ";");
        break;
      case kAluShl:
        ln(dst + " := dologic(6, " + l + ", " + r + ");");
        break;
      case kAluMul:
        ln(dst + " := " + lp + " * " + rp + ";");
        break;
      case kAluAnd:
        ln(dst + " := land(" + l + ", " + r + ");");
        break;
      case kAluOr:
        ln(dst + " := " + l + " + " + r + " - land(" + l + ", " + r +
           ");");
        break;
      case kAluXor:
        ln(dst + " := " + l + " + " + r + " - land(" + l + ", " + r +
           ") * 2;");
        break;
      case kAluEq:
        ln("if " + l + " = " + r + " then " + dst + " := 1");
        ln("else " + dst + " := 0;");
        break;
      case kAluLt:
        ln("if " + l + " < " + r + " then " + dst + " := 1");
        ln("else " + dst + " := 0;");
        break;
    }
}

void
PascalBackend::emitSelector(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    ln("case " + expr(rs_.select(c)) + " of");
    for (size_t i = 0; i < rs_.cases(c).size(); ++i) {
        std::string sep = i + 1 == rs_.cases(c).size() ? "" : ";";
        ln("  " + std::to_string(i) + " : " + dst + " := " +
           expr(rs_.cases(c)[i]) + sep);
    }
    ln("end;");
}

void
PascalBackend::emitTraceLine()
{
    ln("write('Cycle ', cyclecount:3);");
    for (const auto &item : rs_.traceList) {
        const std::string v = ctx_.valueName(item.slot);
        ln("write(' " + ctx_.name(item) + "= ', " + v + ":1);");
    }
    ln("writeln;");
}

void
PascalBackend::emitMemoryLatches()
{
    for (const auto &m : rs_.mems) {
        ln("adr" + ctx_.name(m) + " := " + expr(m.addr) + ";");
        if (opts_.emitDataLatchQuirk) {
            // Appendix E latches data<name> := temp<name>; the value
            // is never read (the data expression is re-evaluated in
            // the update phase). Kept for fidelity.
            ln("data" + ctx_.name(m) + " := " + ctx_.tempName(m.index) + ";");
        }
        ln("opn" + ctx_.name(m) + " := " + expr(m.opn) + ";");
    }
}

void
PascalBackend::emitMemoryUpdate(const MemDesc &m)
{
    const std::string temp = ctx_.tempName(m.index);
    const std::string arr = ctx_.memArrayName(m.index);
    const std::string adr = "adr" + ctx_.name(m);
    const std::string opn = "opn" + ctx_.name(m);

    if (m.opnConst && opts_.specializeConstMem) {
        switch (land(m.opnValue, 3)) {
          case mem_op::kRead:
            ln(temp + " := " + arr + "[" + adr + "];");
            break;
          case mem_op::kWrite:
            ln(temp + " := " + expr(m.data) + ";");
            ln(arr + "[" + adr + "] := " + temp + ";");
            break;
          case mem_op::kInput:
            ln(temp + " := sinput(" + adr + ");");
            break;
          case mem_op::kOutput:
            ln(temp + " := " + expr(m.data) + ";");
            ln("soutput(" + adr + ", " + temp + ");");
            break;
        }
        return;
    }

    ln("case land(" + opn + ", 3) of");
    ln("  0: " + temp + " := " + arr + "[" + adr + "];");
    ln("  1: begin");
    ln("       " + temp + " := " + expr(m.data) + ";");
    ln("       " + arr + "[" + adr + "] := " + temp);
    ln("     end;");
    ln("  2: " + temp + " := sinput(" + adr + ");");
    ln("  3: begin");
    ln("       " + temp + " := " + expr(m.data) + ";");
    ln("       soutput(" + adr + ", " + temp + ");");
    ln("     end");
    ln("end; {case}");
}

void
PascalBackend::emitMemoryTraces(const MemDesc &m)
{
    if (!opts_.emitTrace)
        return;
    const std::string temp = ctx_.tempName(m.index);
    const std::string adr = "adr" + ctx_.name(m);
    const std::string opn = "opn" + ctx_.name(m);

    const std::string wr = "writeln('Write to " + ctx_.name(m) + " at ', " +
                           adr + ":1, ': ', " + temp + ":1);";
    const std::string rd = "writeln('Read from " + ctx_.name(m) + " at ', " +
                           adr + ":1, ': ', " + temp + ":1);";

    switch (m.traceWrites) {
      case MemDesc::TraceMode::Always:
        ln(wr);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("if land(" + opn + ", 5) = 5 then");
        ln("    " + wr);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
    switch (m.traceReads) {
      case MemDesc::TraceMode::Always:
        ln(rd);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("if land(" + opn + ", 9) = 8 then");
        ln("    " + rd);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
}

void
PascalBackend::emitMain()
{
    ln("");
    ln("begin");
    ln("initvalues;");
    ln("cycles := " + std::to_string(rs_.cycles) + ";");
    ln("if cycles = 0 then begin");
    ln("    writeln('Number of cycles to trace');");
    ln("    read(cycles);");
    ln("end;");
    ln("cyclecount := 0;");
    ln("while cyclecount <= cycles do begin");

    for (const auto &c : rs_.comb) {
        if (c.kind == CompKind::Alu)
            emitAlu(c);
        else
            emitSelector(c);
    }

    if (opts_.emitTrace)
        emitTraceLine();

    emitMemoryLatches();
    for (const auto &m : rs_.mems) {
        emitMemoryUpdate(m);
        emitMemoryTraces(m);
    }

    ln("cyclecount := cyclecount + 1;");
    ln("if cyclecount = cycles + 1 then begin");
    ln("    writeln('Continue to cycle (0 to quit)');");
    ln("    read(cycles);");
    ln("end;");
    ln("end; {while}");
    ln("end.");
}

std::string
PascalBackend::generate()
{
    out_.clear();
    emitHeader();
    emitVarDecls();
    emitLand();
    emitInitValues();
    emitDologic();
    emitIoProcs();
    emitMain();
    return out_;
}

std::string
generatePascal(const ResolvedSpec &rs, const CodegenOptions &opts)
{
    return PascalBackend(rs, opts).generate();
}

} // namespace asim

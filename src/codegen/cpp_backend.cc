#include "codegen/cpp_backend.hh"

#include <algorithm>
#include <utility>

#include "codegen/native.hh"
#include "support/bitops.hh"

namespace asim {

// Component names reach the C++ only behind the prefixes ljb, temp,
// adr and opn. Every identifier the backend makes up itself (memfail,
// selfail, alufail, land, dologic, trace*, ...) starts with none of
// them, so no component name can collide with one.
CppBackend::CppBackend(const ResolvedSpec &rs, const CodegenOptions &opts,
                       bool library)
    : rs_(rs), opts_(opts), ctx_(rs, "ljb", "temp"), library_(library)
{}

std::string
CppBackend::expr(const ResolvedExpr &e) const
{
    return ctx_.renderExpr(e, "/");
}

std::string
CppBackend::pf() const
{
    // Serve-capable builds buffer simulation output per protocol
    // command; one-shot builds write stdout directly (and stay
    // byte-identical to the pre-serve generator).
    return opts_.emitServeLoop ? "xprintf" : "std::printf";
}

void
CppBackend::emitHeader()
{
    ln("// Generated by asim2c from specification:");
    ln("//#" + rs_.comment);
    ln("// Compile with: g++ -O2 -fwrapv");
    ln("#include <chrono>");
    ln("#include <cstdint>");
    ln("#include <cstdio>");
    ln("#include <cstdlib>");
    if (opts_.emitServeLoop) {
        ln("#include <cctype>");
        ln("#include <cstdarg>");
        ln("#include <cstring>");
        ln("#include <string>");
    }
    ln("");
}

void
CppBackend::emitState()
{
    for (int slot = 0; slot < rs_.numVarSlots; ++slot)
        ln("static int32_t " + ctx_.varName(slot) + " = 0;");
    for (const auto &m : rs_.mems) {
        ln("static int32_t " + ctx_.memArrayName(m.index) + "[" +
           std::to_string(m.size) + "];");
        ln("static int32_t " + ctx_.tempName(m.index) + " = 0, adr" +
           ctx_.name(m) + " = 0, opn" + ctx_.name(m) + " = 0;");
    }
    if (!rs_.mems.empty()) {
        // Read/write/input/output counts per memory: the cycle body
        // is shared with the library form, whose host reads them.
        ln("static uint64_t memops[" +
           std::to_string(4 * rs_.mems.size()) + "];");
    }
    ln("");
}

void
CppBackend::emitServeHelpers()
{
    ln("// --serve protocol plumbing: command-scoped output buffer");
    ln("// and a scripted input buffer replacing stdin (stdin carries");
    ln("// protocol commands in serve mode).");
    ln("static bool servemode = false;");
    ln("static std::string servein;");
    ln("static size_t serveinpos = 0;");
    ln("static long long serveinops = 0;");
    ln("static std::string serveout;");
    ln("");
    ln("static void");
    ln("vappend(std::string &out, const char *fmt, va_list ap)");
    ln("{");
    ln("    va_list ap2;");
    ln("    va_copy(ap2, ap);");
    ln("    char tmp[512];");
    ln("    int n = std::vsnprintf(tmp, sizeof tmp, fmt, ap2);");
    ln("    va_end(ap2);");
    ln("    if (n <= 0)");
    ln("        return;");
    ln("    if (n < (int)sizeof tmp) {");
    ln("        out.append(tmp, (size_t)n);");
    ln("        return;");
    ln("    }");
    ln("    std::string big((size_t)n + 1, '\\0');");
    ln("    std::vsnprintf(&big[0], big.size(), fmt, ap);");
    ln("    big.resize((size_t)n);");
    ln("    out += big;");
    ln("}");
    ln("");
    ln("static void");
    ln("xprintf(const char *fmt, ...)");
    ln("{");
    ln("    va_list ap;");
    ln("    va_start(ap, fmt);");
    ln("    if (servemode)");
    ln("        vappend(serveout, fmt, ap);");
    ln("    else");
    ln("        std::vprintf(fmt, ap);");
    ln("    va_end(ap);");
    ln("}");
    ln("");
    ln("static int");
    ln("inchar()");
    ln("{");
    ln("    if (!servemode)");
    ln("        return std::getchar();");
    ln("    if (serveinpos >= servein.size())");
    ln("        return -1;");
    ln("    ++serveinops;");
    ln("    return (unsigned char)servein[serveinpos++];");
    ln("}");
    ln("");
    ln("static long");
    ln("inint()");
    ln("{");
    ln("    if (!servemode) {");
    ln("        long v = 0;");
    ln("        if (std::scanf(\"%ld\", &v) != 1)");
    ln("            v = 0;");
    ln("        return v;");
    ln("    }");
    ln("    while (serveinpos < servein.size() &&");
    ln("           std::isspace((unsigned char)servein[serveinpos]))");
    ln("        ++serveinpos;");
    ln("    char *end = nullptr;");
    ln("    long v = std::strtol(servein.c_str() + serveinpos, &end,");
    ln("                         10);");
    ln("    if (end == servein.c_str() + serveinpos)");
    ln("        return 0;");
    ln("    serveinpos = (size_t)(end - servein.c_str());");
    ln("    ++serveinops;");
    ln("    return v;");
    ln("}");
    ln("");
}

void
CppBackend::emitLogicHelpers()
{
    ln("static inline int32_t");
    ln("land(int32_t a, int32_t b)");
    ln("{");
    ln("    return (int32_t)((uint32_t)a & (uint32_t)b);");
    ln("}");
    ln("");
    // The cycle body range-checks a computed function before the
    // call (alufail), so no case falls through to the default.
    ln("static int32_t");
    ln("dologic(int32_t funct, int32_t left, int32_t right)");
    ln("{");
    ln("    const int32_t mask = " + std::to_string(kValueMask) + ";");
    ln("    int32_t value = 0;");
    ln("    switch (funct) {");
    ln("      case 0: value = 0; break;");
    ln("      case 1: value = right; break;");
    ln("      case 2: value = left; break;");
    ln("      case 3: value = mask - left; break;");
    ln("      case 4: value = left + right; break;");
    ln("      case 5: value = left - right; break;");
    if (opts_.aluSemantics == AluSemantics::Thesis) {
        ln("      case 6:");
        ln("        while (right > 0 && left != 0) {");
        ln("            left = land(left + left, mask);");
        ln("            value = left;");
        ln("            --right;");
        ln("        }");
        ln("        break;");
    } else {
        ln("      case 6:");
        ln("        value = land(left, mask);");
        ln("        while (right > 0 && value != 0) {");
        ln("            value = land(value + value, mask);");
        ln("            --right;");
        ln("        }");
        ln("        break;");
    }
    ln("      case 7: value = left * right; break;");
    ln("      case 8: value = land(left, right); break;");
    ln("      case 9: value = left + right - land(left, right); break;");
    ln("      case 10:");
    ln("        value = left + right - land(left, right) * 2;");
    ln("        break;");
    ln("      case 11: value = 0; break;");
    ln("      case 12: value = left == right ? 1 : 0; break;");
    ln("      case 13: value = left < right ? 1 : 0; break;");
    ln("    }");
    ln("    return value;");
    ln("}");
    ln("");
}

void
CppBackend::emitProgramHelpers()
{
    ln("static int32_t");
    ln("sinput(int32_t address)");
    ln("{");
    if (opts_.emitServeLoop) {
        ln("    if (address == 0) {");
        ln("        int c = inchar();");
        ln("        return c < 0 ? 0 : c;");
        ln("    }");
        ln("    if (address != 1)");
        ln("        xprintf(\"Input from address %d: \", (int)address);");
        ln("    return (int32_t)inint();");
    } else {
        ln("    if (address == 0) {");
        ln("        int c = std::getchar();");
        ln("        return c < 0 ? 0 : c;");
        ln("    }");
        ln("    if (address != 1)");
        ln("        std::printf(\"Input from address %d: \", (int)address);");
        ln("    long v = 0;");
        ln("    if (std::scanf(\"%ld\", &v) != 1)");
        ln("        v = 0;");
        ln("    return (int32_t)v;");
    }
    ln("}");
    ln("");
    ln("static void");
    ln("soutput(int32_t address, int32_t data)");
    ln("{");
    ln("    if (address == 0)");
    ln("        " + pf() + "(\"%c\\n\", (char)(data & 0xff));");
    ln("    else if (address == 1)");
    ln("        " + pf() + "(\"%d\\n\", (int)data);");
    ln("    else");
    ln("        " + pf() + "(\"Output to address %d: %d\\n\",");
    ln("                    (int)address, (int)data);");
    ln("}");
    ln("");
    ln("static int");
    ln("memfail(const char *mem, int32_t adr, long long cycle)");
    ln("{");
    ln("    std::fprintf(stderr,");
    ln("                 \"memory %s address %d out of range \"");
    ln("                 \"(cycle %lld)\\n\", mem, (int)adr, cycle);");
    ln("    std::exit(2);");
    ln("}");
    ln("");
    ln("static int");
    ln("selfail(const char *sel, int32_t idx, long long cycle)");
    ln("{");
    ln("    std::fprintf(stderr,");
    ln("                 \"selector %s index %d out of range \"");
    ln("                 \"(cycle %lld)\\n\", sel, (int)idx, cycle);");
    ln("    std::exit(2);");
    ln("}");
    ln("");
    ln("static int");
    ln("alufail(const char *, int32_t funct, long long)");
    ln("{");
    ln("    std::fprintf(stderr,");
    ln("                 \"ALU function %d out of range 0..13\\n\",");
    ln("                 (int)funct);");
    ln("    std::exit(2);");
    ln("}");
    ln("");
    if (!opts_.emitTrace)
        return;
    ln("static void");
    ln("tracecycle(long long cyclecount)");
    ln("{");
    ln("    " + pf() + "(\"Cycle %3lld\", cyclecount);");
    for (const auto &item : rs_.traceList) {
        const std::string v = ctx_.valueName(item.slot);
        ln("    " + pf() + "(\" " + ctx_.name(item) + "= %d\", (int)" + v +
           ");");
    }
    ln("    " + pf() + "(\"\\n\");");
    ln("}");
    ln("");
    for (const char *kind : {"write", "read"}) {
        const bool write = kind[0] == 'w';
        ln("static void");
        ln(std::string("trace") + kind +
           "(const char *mem, int32_t adr, int32_t value)");
        ln("{");
        ln("    " + pf() + "(\"" + (write ? "Write to" : "Read from") +
           " %s at %d: %d\\n\", mem, (int)adr, (int)value);");
        ln("}");
        ln("");
    }
}

void
CppBackend::emitInitValues()
{
    ln("static void");
    ln("initvalues()");
    ln("{");
    for (const auto &m : rs_.mems) {
        const std::string arr = ctx_.memArrayName(m.index);
        if (rs_.init(m).empty())
            continue;
        for (size_t i = 0; i < rs_.init(m).size(); ++i) {
            ln("    " + arr + "[" + std::to_string(i) +
               "] = " + std::to_string(rs_.init(m)[i]) + ";");
        }
    }
    ln("}");
    ln("");
}

void
CppBackend::emitResetState()
{
    ln("static void");
    ln("resetstate()");
    ln("{");
    for (int slot = 0; slot < rs_.numVarSlots; ++slot)
        ln("    " + ctx_.varName(slot) + " = 0;");
    for (const auto &m : rs_.mems) {
        ln("    for (long i = 0; i < " + std::to_string(m.size) +
           "; ++i)");
        ln("        " + ctx_.memArrayName(m.index) + "[i] = 0;");
        ln("    " + ctx_.tempName(m.index) + " = 0;");
        ln("    adr" + ctx_.name(m) + " = 0;");
        ln("    opn" + ctx_.name(m) + " = 0;");
    }
    ln("    initvalues();");
    ln("}");
    ln("");
}

void
CppBackend::emitLibraryHeader()
{
    // The ABI: this struct must match NativeCtx (codegen/native.hh);
    // asim_ctx_size lets the loader check that it does.
    ln("// Generated by asim2c from specification:");
    ln("//#" + rs_.comment);
    ln("// In-process library form: g++ -O2 -fwrapv -fPIC -shared "
       "-nodefaultlibs");
    ln("#include <stdint.h>");
    ln("");
    ln("struct asim_ctx");
    ln("{");
    ln("    int32_t *vars;");
    ln("    int32_t **mems; // per memory: cells, &temp, &adr, &opn");
    ln("    uint64_t *memops; // per memory: -, writes, inputs, outputs");
    ln("    int32_t *scratch; // vars, then per memory temp, adr, opn");
    ln("    void *host;");
    ln("    int32_t (*input)(void *host, int32_t address);");
    ln("    void (*output)(void *host, int32_t address, int32_t data);");
    ln("    void (*trace)(void *host, long long cycle);");
    ln("    void (*memtrace)(void *host, const char *mem, int write,");
    ln("                     int32_t address, int32_t value);");
    ln("    long long cycle;");
    ln("    const char *faultname;");
    ln("    int32_t faultvalue;");
    ln("};");
    ln("");
    ln("extern \"C\" const unsigned asim_ctx_size = sizeof(asim_ctx);");
    ln("");
    ln("static int");
    ln("fault(asim_ctx *C, int code, const char *name, int32_t value)");
    ln("{");
    ln("    C->faultname = name;");
    ln("    C->faultvalue = value;");
    ln("    return code;");
    ln("}");
    ln("");
}

void
CppBackend::emitLibraryPrologue()
{
    // The program form's names, bound to the host's state: vars and
    // latches to the working copy S, the cell arrays in place. S is
    // restrict: no cell store can change it, so its values stay in
    // registers across one.
    for (int slot = 0; slot < rs_.numVarSlots; ++slot) {
        ln("    int32_t &" + ctx_.varName(slot) + " = S[" +
           std::to_string(slot) + "];");
    }
    for (const auto &m : rs_.mems) {
        ln("    int32_t *const " + ctx_.memArrayName(m.index) +
           " = C->mems[" + std::to_string(4 * m.index) + "];");
        const std::string latches[] = {ctx_.tempName(m.index),
                                       "adr" + ctx_.name(m), "opn" + ctx_.name(m)};
        for (int k = 0; k < 3; ++k) {
            ln("    int32_t &" + latches[k] + " = S[" +
               std::to_string(rs_.numVarSlots + 3 * m.index + k) +
               "];");
        }
    }
    if (!rs_.mems.empty())
        ln("    uint64_t *const memops = C->memops;");
    ln("    auto sinput = [C](int32_t a) { return C->input(C->host, a); };");
    ln("    auto soutput = [C](int32_t a, int32_t d) {");
    ln("        C->output(C->host, a, d);");
    ln("    };");
    const std::pair<const char *, int> fails[] = {
        {"selfail", kNativeSelectorFault},
        {"memfail", kNativeAddressFault},
        {"alufail", kNativeAluFault}};
    for (const auto &[name, code] : fails) {
        ln(std::string("    auto ") + name +
           " = [C](const char *n, int32_t v, long long) {");
        ln("        return fault(C, " + std::to_string(code) +
           ", n, v);");
        ln("    };");
    }
    if (!opts_.emitTrace)
        return;
    ln("    auto tracecycle = [C, S](long long c) {");
    ln("        sync(C, S);");
    ln("        C->trace(C->host, c);");
    ln("    };");
    for (int write = 1; write >= 0; --write) {
        ln(std::string("    auto trace") + (write ? "write" : "read") +
           " = [C](const char *m, int32_t a, int32_t v) {");
        ln("        C->memtrace(C->host, m, " + std::to_string(write) +
           ", a, v);");
        ln("    };");
    }
}

void
CppBackend::emitLibraryEntry()
{
    // S, the host's scratch array, holds the vars, then each memory's
    // temp, adr, and opn for the length of one call: one array the
    // compiler can address by constant offsets, where pointers into
    // MachineState kept it reloading every value after every store.
    // sync() writes S back whenever the host may read it: before a
    // trace line and on return.
    const std::string vars = std::to_string(rs_.numVarSlots);
    const std::string mems = std::to_string(rs_.mems.size());
    ln("static void");
    ln("sync(asim_ctx *C, const int32_t *S)");
    ln("{");
    ln("    for (long i = 0; i < " + vars + "; ++i)");
    ln("        C->vars[i] = S[i];");
    ln("    for (long m = 0; m < " + mems + "; ++m)");
    ln("        for (long k = 0; k < 3; ++k)");
    ln("            *C->mems[4 * m + 1 + k] = S[" + vars +
       " + 3 * m + k];");
    ln("}");
    ln("");
    emitDoCycle();
    ln("extern \"C\" int");
    ln("asim_run(asim_ctx *C, uint64_t n)");
    ln("{");
    ln("    int32_t *const S = C->scratch;");
    ln("    for (long i = 0; i < " + vars + "; ++i)");
    ln("        S[i] = C->vars[i];");
    ln("    for (long m = 0; m < " + mems + "; ++m)");
    ln("        for (long k = 0; k < 3; ++k)");
    ln("            S[" + vars + " + 3 * m + k] = *C->mems[4 * m + 1 + k];");
    ln("    int code = 0;");
    ln("    for (; n != 0 && (code = docycle(C, S, C->cycle)) == 0; --n)");
    ln("        ++C->cycle;");
    ln("    sync(C, S);");
    ln("    return code;");
    ln("}");
}

void
CppBackend::emitAlu(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    const std::string l = expr(rs_.left(c));
    const std::string r = expr(rs_.right(c));
    const std::string lp = CodegenContext::paren(l);
    const std::string rp = CodegenContext::paren(r);

    if (!c.functConst || !opts_.inlineConstAlu) {
        if (c.functConst) {
            // Resolve rejected out-of-range constants already.
            ln("    " + dst + " = dologic(" + expr(rs_.funct(c)) + ", " + l +
               ", " + r + ");");
            return;
        }
        ln("    {");
        ln("        const int32_t f = " + expr(rs_.funct(c)) + ";");
        ln("        if ((uint32_t)f >= " +
           std::to_string(kAluFunctionCount) + "u)");
        ln("            return alufail(\"" + ctx_.name(c) +
           "\", f, cyclecount);");
        ln("        " + dst + " = dologic(f, " + l + ", " + r + ");");
        ln("    }");
        return;
    }

    switch (c.functValue) {
      case kAluZero:
      case kAluUnused:
        ln("    " + dst + " = 0;");
        break;
      case kAluRight:
        ln("    " + dst + " = " + r + ";");
        break;
      case kAluLeft:
        ln("    " + dst + " = " + l + ";");
        break;
      case kAluNot:
        ln("    " + dst + " = " + std::to_string(kValueMask) +
           " - " + lp + ";");
        break;
      case kAluAdd:
        ln("    " + dst + " = " + l + " + " + r + ";");
        break;
      case kAluSub:
        ln("    " + dst + " = " + l + " - " + rp + ";");
        break;
      case kAluShl:
        ln("    " + dst + " = dologic(6, " + l + ", " + r + ");");
        break;
      case kAluMul:
        ln("    " + dst + " = " + lp + " * " + rp + ";");
        break;
      case kAluAnd:
        ln("    " + dst + " = land(" + l + ", " + r + ");");
        break;
      case kAluOr:
        ln("    " + dst + " = " + l + " + " + r + " - land(" + l +
           ", " + r + ");");
        break;
      case kAluXor:
        ln("    " + dst + " = " + l + " + " + r + " - land(" + l +
           ", " + r + ") * 2;");
        break;
      case kAluEq:
        ln("    " + dst + " = " + lp + " == " + rp +
           " ? 1 : 0;");
        break;
      case kAluLt:
        ln("    " + dst + " = " + lp + " < " + rp + " ? 1 : 0;");
        break;
    }
}

void
CppBackend::emitSelector(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    const auto cases = rs_.cases(c);
    const bool constant =
        std::all_of(cases.begin(), cases.end(),
                    [](const ResolvedExpr &e) { return e.isConstant(); });
    if (constant) {
        // A ROM (thesis §4.4, the vm's SelTable): one constant table
        // behind one unsigned bounds check, where a switch of n
        // constant cases gives the host compiler n blocks to lower.
        const std::string n = std::to_string(cases.size());
        ln("    {");
        ln("        static const int32_t T[" + n + "] = {");
        std::string row;
        for (size_t i = 0; i < cases.size(); ++i) {
            row += (row.empty() ? "            " : " ") +
                   std::to_string(cases[i].constTotal) + ",";
            if (row.size() >= 64 || i + 1 == cases.size()) {
                ln(row);
                row.clear();
            }
        }
        ln("        };");
        ln("        const int32_t i = " + expr(rs_.select(c)) + ";");
        ln("        if ((uint32_t)i >= " + n + "u)");
        ln("            return selfail(\"" + ctx_.name(c) +
           "\", i, cyclecount);");
        ln("        " + dst + " = T[i];");
        ln("    }");
        return;
    }
    ln("    switch (" + expr(rs_.select(c)) + ") {");
    for (size_t i = 0; i < rs_.cases(c).size(); ++i) {
        ln("      case " + std::to_string(i) + ": " + dst + " = " +
           expr(rs_.cases(c)[i]) + "; break;");
    }
    ln("      default:");
    ln("        return selfail(\"" + ctx_.name(c) + "\", " + expr(rs_.select(c)) +
       ", cyclecount);");
    ln("    }");
}

void
CppBackend::emitMemoryLatches()
{
    for (const auto &m : rs_.mems) {
        ln("    adr" + ctx_.name(m) + " = " + expr(m.addr) + ";");
        ln("    opn" + ctx_.name(m) + " = " + expr(m.opn) + ";");
    }
}

void
CppBackend::emitMemoryUpdate(const MemDesc &m)
{
    const std::string temp = ctx_.tempName(m.index);
    const std::string arr = ctx_.memArrayName(m.index);
    const std::string adr = "adr" + ctx_.name(m);
    const std::string opn = "opn" + ctx_.name(m);
    const std::string size = std::to_string(m.size);
    const std::string check = "if ((uint32_t)" + adr + " >= " + size +
                              "u) return memfail(\"" + ctx_.name(m) +
                              "\", " + adr + ", cyclecount);";
    // Writes, inputs and outputs are counted after the access (a
    // faulting one is not). Reads go uncounted: every memory makes one
    // access per cycle, so the host derives them from the cycle count.
    auto count = [&](int op) {
        return "++memops[" + std::to_string(4 * m.index + op) + "];";
    };

    if (m.opnConst && opts_.specializeConstMem) {
        const int op = land(m.opnValue, 3);
        switch (op) {
          case mem_op::kRead:
            ln("    " + check);
            ln("    " + temp + " = " + arr + "[" + adr + "];");
            break;
          case mem_op::kWrite:
            ln("    " + check);
            ln("    " + temp + " = " + expr(m.data) + ";");
            ln("    " + arr + "[" + adr + "] = " + temp + ";");
            break;
          case mem_op::kInput:
            ln("    " + temp + " = sinput(" + adr + ");");
            break;
          case mem_op::kOutput:
            ln("    " + temp + " = " + expr(m.data) + ";");
            ln("    soutput(" + adr + ", " + temp + ");");
            break;
        }
        if (op != mem_op::kRead)
            ln("    " + count(op));
        return;
    }

    ln("    switch (land(" + opn + ", 3)) {");
    ln("      case 0:");
    ln("        " + check);
    ln("        " + temp + " = " + arr + "[" + adr + "];");
    ln("        break;");
    ln("      case 1:");
    ln("        " + check);
    ln("        " + temp + " = " + expr(m.data) + ";");
    ln("        " + arr + "[" + adr + "] = " + temp + ";");
    ln("        " + count(1));
    ln("        break;");
    ln("      case 2:");
    ln("        " + temp + " = sinput(" + adr + ");");
    ln("        " + count(2));
    ln("        break;");
    ln("      case 3:");
    ln("        " + temp + " = " + expr(m.data) + ";");
    ln("        soutput(" + adr + ", " + temp + ");");
    ln("        " + count(3));
    ln("        break;");
    ln("    }");
}

void
CppBackend::emitMemoryTraces(const MemDesc &m)
{
    if (!opts_.emitTrace)
        return;
    const std::string args = "(\"" + ctx_.name(m) + "\", adr" + ctx_.name(m) +
                             ", " + ctx_.tempName(m.index) + ");";
    const std::string opn = "opn" + ctx_.name(m);

    switch (m.traceWrites) {
      case MemDesc::TraceMode::Always:
        ln("    tracewrite" + args);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("    if (land(" + opn + ", 5) == 5)");
        ln("        tracewrite" + args);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
    switch (m.traceReads) {
      case MemDesc::TraceMode::Always:
        ln("    traceread" + args);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("    if (land(" + opn + ", 9) == 8)");
        ln("        traceread" + args);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
}

void
CppBackend::emitDoCycle()
{
    // One body for both forms; only the head differs. A runtime fault
    // returns the helper's code from the body (the program's helpers
    // exit before returning).
    ln("static int");
    if (library_) {
        ln("docycle(asim_ctx *C, int32_t *__restrict S, "
           "long long cyclecount)");
        ln("{");
        emitLibraryPrologue();
    } else {
        ln("docycle(long long cyclecount)");
        ln("{");
    }
    ln("    // cycle body");
    ln("    (void)cyclecount;");

    for (const auto &c : rs_.comb) {
        if (c.kind == CompKind::Alu)
            emitAlu(c);
        else
            emitSelector(c);
    }

    if (opts_.emitTrace)
        ln("    tracecycle(cyclecount);");

    emitMemoryLatches();
    for (const auto &m : rs_.mems) {
        emitMemoryUpdate(m);
        emitMemoryTraces(m);
    }
    ln("    return 0;");
    ln("}");
    ln("");
}

void
CppBackend::emitStateDump()
{
    // In serve builds the dump rides the protocol response buffer;
    // one-shot builds print it to stderr after the loop.
    auto emit = [&](const std::string &fmtAndArgs,
                    const std::string &indent = "    ") {
        if (opts_.emitServeLoop)
            ln(indent + "dpf(" + fmtAndArgs + ");");
        else
            ln(indent + "std::fprintf(stderr, " + fmtAndArgs + ");");
    };

    if (opts_.emitServeLoop) {
        ln("static void");
        ln("dpf(const char *fmt, ...)");
        ln("{");
        ln("    va_list ap;");
        ln("    va_start(ap, fmt);");
        ln("    if (servemode)");
        ln("        vappend(serveout, fmt, ap);");
        ln("    else");
        ln("        std::vfprintf(stderr, fmt, ap);");
        ln("    va_end(ap);");
        ln("}");
        ln("");
    }
    ln("static void");
    ln("dumpstate()");
    ln("{");
    for (int slot = 0; slot < rs_.numVarSlots; ++slot) {
        emit("\"STATE_V " + std::to_string(slot) + " %d\\n\", (int)" +
             ctx_.varName(slot));
    }
    for (const auto &m : rs_.mems) {
        const std::string idx = std::to_string(m.index);
        emit("\"STATE_M " + idx + " %d %d %d\\n\", (int)" +
             ctx_.tempName(m.index) + ", (int)adr" + ctx_.name(m) +
             ", (int)opn" + ctx_.name(m));
        ln("    for (long i = 0; i < " + std::to_string(m.size) +
           "; ++i)");
        emit("\"STATE_C " + idx + " %ld %d\\n\", i, (int)" +
                 ctx_.memArrayName(m.index) + "[i]",
             "        ");
    }
    emit("\"STATE_END\\n\"");
    ln("}");
    ln("");
}

void
CppBackend::emitRestoreState()
{
    // The RESTORE command's payload parser: the inverse of
    // dumpstate(), same line formats plus the cycle counter and the
    // scripted-input cursor. Every index and cursor is bounds-checked
    // against the statically known shape; any unknown line, bad
    // index, or missing STATE_END rejects the whole payload (the
    // serve loop answers ERR and the adapter abandons the child).
    ln("static bool");
    ln("restorestate(const std::string &blob, long long *cyc)");
    ln("{");
    ln("    size_t pos = 0;");
    ln("    bool complete = false;");
    ln("    while (pos < blob.size()) {");
    ln("        const char *line = blob.c_str() + pos;");
    ln("        char *end = nullptr;");
    ln("        if (std::strncmp(line, \"STATE_V \", 8) == 0) {");
    ln("            long slot = std::strtol(line + 8, &end, 10);");
    ln("            long v = std::strtol(end, &end, 10);");
    ln("            switch (slot) {");
    for (int slot = 0; slot < rs_.numVarSlots; ++slot) {
        ln("              case " + std::to_string(slot) + ": " +
           ctx_.varName(slot) + " = (int32_t)v; break;");
    }
    ln("              default: (void)v; return false;");
    ln("            }");
    ln("        } else if (std::strncmp(line, \"STATE_M \", 8) == 0) {");
    ln("            long idx = std::strtol(line + 8, &end, 10);");
    ln("            long t = std::strtol(end, &end, 10);");
    ln("            long a = std::strtol(end, &end, 10);");
    ln("            long o = std::strtol(end, &end, 10);");
    ln("            switch (idx) {");
    for (const auto &m : rs_.mems) {
        ln("              case " + std::to_string(m.index) + ":");
        ln("                " + ctx_.tempName(m.index) +
           " = (int32_t)t;");
        ln("                adr" + ctx_.name(m) + " = (int32_t)a;");
        ln("                opn" + ctx_.name(m) + " = (int32_t)o;");
        ln("                break;");
    }
    ln("              default: (void)t; (void)a; (void)o;");
    ln("                return false;");
    ln("            }");
    ln("        } else if (std::strncmp(line, \"STATE_C \", 8) == 0) {");
    ln("            long idx = std::strtol(line + 8, &end, 10);");
    ln("            long cell = std::strtol(end, &end, 10);");
    ln("            long v = std::strtol(end, &end, 10);");
    ln("            switch (idx) {");
    for (const auto &m : rs_.mems) {
        ln("              case " + std::to_string(m.index) + ":");
        ln("                if (cell < 0 || cell >= " +
           std::to_string(m.size) + ")");
        ln("                    return false;");
        ln("                " + ctx_.memArrayName(m.index) +
           "[cell] = (int32_t)v;");
        ln("                break;");
    }
    ln("              default: (void)cell; (void)v; return false;");
    ln("            }");
    ln("        } else if (std::strncmp(line, \"STATE_I \", 8) == 0) {");
    ln("            long long ops = std::strtoll(line + 8, &end, 10);");
    ln("            long long bp = std::strtoll(end, nullptr, 10);");
    ln("            if (ops < 0 || bp < 0 ||");
    ln("                (size_t)bp > servein.size())");
    ln("                return false;");
    ln("            serveinops = ops;");
    ln("            serveinpos = (size_t)bp;");
    ln("        } else if (std::strncmp(line, \"STATE_CYC \", 10)");
    ln("                   == 0) {");
    ln("            *cyc = std::strtoll(line + 10, nullptr, 10);");
    ln("            if (*cyc < 0)");
    ln("                return false;");
    ln("        } else if (std::strncmp(line, \"STATE_END\", 9) == 0) {");
    ln("            complete = true;");
    ln("        } else {");
    ln("            return false;");
    ln("        }");
    ln("        size_t nl = blob.find('\\n', pos);");
    ln("        pos = nl == std::string::npos ? blob.size() : nl + 1;");
    ln("    }");
    ln("    return complete;");
    ln("}");
    ln("");
}

void
CppBackend::emitServeLoop()
{
    ln("static void");
    ln("respond(const char *status, long long cyc, long long ns)");
    ln("{");
    ln("    std::printf(\"%s %lld %lld %zu\\n\", status, cyc, ns,");
    ln("                serveout.size());");
    ln("    if (!serveout.empty())");
    ln("        std::fwrite(serveout.data(), 1, serveout.size(),");
    ln("                    stdout);");
    ln("    std::fflush(stdout);");
    ln("    serveout.clear();");
    ln("}");
    ln("");
    ln("static int");
    ln("serve()");
    ln("{");
    ln("    resetstate();");
    ln("    long long cyc = 0;");
    ln("    char line[128];");
    ln("    while (std::fgets(line, sizeof line, stdin)) {");
    ln("        if (std::strncmp(line, \"RUN \", 4) == 0) {");
    ln("            long long n = std::atoll(line + 4);");
    ln("            auto t0 = std::chrono::steady_clock::now();");
    ln("            for (long long i = 0; i < n; ++i, ++cyc)");
    ln("                docycle(cyc);");
    ln("            auto t1 = std::chrono::steady_clock::now();");
    ln("            respond(\"OK\", cyc,");
    ln("                    (long long)std::chrono::duration_cast<");
    ln("                        std::chrono::nanoseconds>(t1 - t0)");
    ln("                        .count());");
    ln("        } else if (std::strncmp(line, \"INPUT \", 6) == 0) {");
    ln("            size_t n = (size_t)std::atoll(line + 6);");
    ln("            servein.assign(n, '\\0');");
    ln("            if (n != 0 &&");
    ln("                std::fread(&servein[0], 1, n, stdin) != n)");
    ln("                return 3;");
    ln("            serveinpos = 0;");
    ln("            respond(\"OK\", cyc, 0);");
    ln("        } else if (std::strncmp(line, \"RESET\", 5) == 0) {");
    ln("            resetstate();");
    ln("            cyc = 0;");
    ln("            serveinpos = 0;");
    ln("            serveinops = 0;");
    ln("            serveout.clear();");
    ln("            respond(\"OK\", 0, 0);");
    ln("        } else if (std::strncmp(line, \"SNAPSHOT\", 8) == 0) {");
    if (opts_.emitStateDump) {
        ln("            dpf(\"STATE_I %lld %zu\\n\", serveinops,");
        ln("                serveinpos);");
        ln("            dumpstate();");
        ln("            respond(\"OK\", cyc, 0);");
    } else {
        ln("            xprintf(\"built without state dump\\n\");");
        ln("            respond(\"ERR\", cyc, 0);");
    }
    ln("        } else if (std::strncmp(line, \"RESTORE \", 8) == 0) {");
    ln("            size_t n = (size_t)std::atoll(line + 8);");
    ln("            std::string blob(n, '\\0');");
    ln("            if (n != 0 &&");
    ln("                std::fread(&blob[0], 1, n, stdin) != n)");
    ln("                return 3;");
    ln("            long long newcyc = cyc;");
    ln("            if (restorestate(blob, &newcyc)) {");
    ln("                cyc = newcyc;");
    ln("                respond(\"OK\", cyc, 0);");
    ln("            } else {");
    ln("                xprintf(\"bad restore payload\\n\");");
    ln("                respond(\"ERR\", cyc, 0);");
    ln("            }");
    ln("        } else if (std::strncmp(line, \"STATE\", 5) == 0) {");
    if (opts_.emitStateDump) {
        ln("            dumpstate();");
        ln("            respond(\"OK\", cyc, 0);");
    } else {
        ln("            xprintf(\"built without state dump\\n\");");
        ln("            respond(\"ERR\", cyc, 0);");
    }
    ln("        } else if (std::strncmp(line, \"STATS\", 5) == 0) {");
    ln("            xprintf(\"CYCLES=%lld\\n\", cyc);");
    ln("            respond(\"OK\", cyc, 0);");
    ln("        } else if (std::strncmp(line, \"QUIT\", 4) == 0) {");
    ln("            respond(\"OK\", cyc, 0);");
    ln("            return 0;");
    ln("        } else {");
    ln("            xprintf(\"unknown command: %s\", line);");
    ln("            respond(\"ERR\", cyc, 0);");
    ln("        }");
    ln("    }");
    ln("    return 0;");
    ln("}");
    ln("");
}

void
CppBackend::emitMain()
{
    ln("int");
    ln("main(int argc, char **argv)");
    ln("{");
    if (opts_.emitServeLoop) {
        ln("    if (argc > 1 && std::strcmp(argv[1], \"--serve\") "
           "== 0) {");
        ln("        servemode = true;");
        ln("        return serve();");
        ln("    }");
    }
    ln("    long long cycles = " + std::to_string(rs_.cycles) +
       ";");
    ln("    if (argc > 1)");
    ln("        cycles = std::atoll(argv[1]);");
    ln("    initvalues();");
    ln("    auto t0 = std::chrono::steady_clock::now();");
    ln("    for (long long cyclecount = 0; cyclecount <= cycles;");
    ln("         ++cyclecount)");
    ln("        docycle(cyclecount);");
    ln("    auto t1 = std::chrono::steady_clock::now();");
    ln("    std::fflush(stdout);");
    ln("    std::fprintf(stderr, \"SIM_NS=%lld\\n\",");
    ln("        (long long)std::chrono::duration_cast<");
    ln("            std::chrono::nanoseconds>(t1 - t0).count());");
    if (opts_.emitStateDump)
        ln("    dumpstate();");
    ln("    return 0;");
    ln("}");
}

std::string
CppBackend::generate()
{
    out_.clear();
    if (library_) {
        emitLibraryHeader();
        emitLogicHelpers();
        emitLibraryEntry();
        return out_;
    }
    emitHeader();
    emitState();
    if (opts_.emitServeLoop)
        emitServeHelpers();
    emitLogicHelpers();
    emitProgramHelpers();
    emitInitValues();
    if (opts_.emitServeLoop)
        emitResetState();
    emitDoCycle();
    if (opts_.emitStateDump)
        emitStateDump();
    if (opts_.emitServeLoop) {
        emitRestoreState();
        emitServeLoop();
    }
    emitMain();
    return out_;
}

std::string
generateCpp(const ResolvedSpec &rs, const CodegenOptions &opts)
{
    return CppBackend(rs, opts).generate();
}

std::string
generateCppLibrary(const ResolvedSpec &rs, const CodegenOptions &opts)
{
    return CppBackend(rs, opts, /*library=*/true).generate();
}

} // namespace asim

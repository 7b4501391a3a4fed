/**
 * @file
 * `asim2c` — the ASIM II compiler: specification in, Pascal or C++
 * out (thesis Appendix A: `sim [file]` producing `simulator.p`);
 * `asim2c --help` lists the flags.
 *
 * What the one-line help entries leave out: `--serve` also emits the
 * machine-state dump, so the program can be driven over a pipe by
 * hand (`simulator --serve`, codegen/codegen.hh
 * CodegenOptions::emitServeLoop; the native engine does not use it);
 * the `--spec-hash` value keys checkpoints and the native build
 * cache; `--trace-out` records parse/resolve and codegen spans.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "cli/flags.hh"
#include "codegen/codegen.hh"
#include "sim/simulation.hh"
#include "support/tracing.hh"

int
main(int argc, char **argv)
{
    using namespace asim;

    std::string lang = "pascal";
    std::string outPath;
    std::string traceOut;
    bool specHashOnly = false;
    CodegenOptions opts;

    struct TraceGuard
    {
        ~TraceGuard() { tracing::stop(); }
    } traceGuard;

    auto language = [&lang](const std::string &v) {
        if (v != "pascal" && v != "cpp")
            throw cli::BadValue("pascal or cpp");
        lang = v;
    };
    auto noOptimize = [&opts](const std::string &) {
        opts.inlineConstAlu = opts.specializeConstMem = false;
    };
    auto fixedShl = [&opts](const std::string &) {
        opts.aluSemantics = AluSemantics::Fixed;
    };
    auto serve = [&opts](const std::string &) {
        opts.emitServeLoop = opts.emitStateDump = true;
    };
    const cli::FlagTable flags{
        "asim2c [options] <spec-file>",
        {
            {"--lang=pascal|cpp", "target language (default pascal)",
             language},
            {"-o FILE", "output path (default simulator.p / simulator.cc)",
             cli::text(outPath)},
            {"--no-trace", "generate without trace statements",
             cli::assign(opts.emitTrace, false)},
            {"--no-optimize", "disable constant inlining/specialization",
             noOptimize},
            {"--fixed-shl", "repaired shift-left semantics", fixedShl},
            {"--serve", "C++ only: also emit a --serve command loop on "
             "stdin/stdout", serve},
            {"--spec-hash", "print the spec's identity hash and exit",
             cli::assign(specHashOnly)},
            {"--trace-out=FILE", "write a Chrome trace_event JSON profile",
             cli::text(traceOut)},
        }};
    std::vector<std::string> files;
    if (auto status = flags.parse(argc, argv, &files))
        return *status;
    if (files.empty() || files.back().empty()) {
        flags.printUsage(std::cerr);
        return 1;
    }
    const std::string &file = files.back();
    if (opts.emitServeLoop && lang != "cpp") {
        std::cerr << "--serve is C++ only (--lang=cpp)\n";
        return 1;
    }
    if (outPath.empty())
        outPath = lang == "pascal" ? "simulator.p" : "simulator.cc";
    if (!traceOut.empty() && !tracing::start(traceOut)) {
        std::cerr << "cannot write trace file " << traceOut << "\n";
        return 1;
    }

    try {
        Diagnostics diag;
        if (specHashOnly) {
            SimulationOptions sopts;
            sopts.specFile = file;
            ResolvedSpec rs = Simulation::loadSpec(sopts, &diag);
            char buf[19];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(
                              specIdentityHash(rs)));
            std::cout << buf << "\n";
            return 0;
        }
        std::cerr << "Reading file " << file << "\n";
        SimulationOptions sopts;
        sopts.specFile = file;
        tracing::Span loadSpan("asim2c.parse_resolve", "compile");
        ResolvedSpec rs = Simulation::loadSpec(sopts, &diag);
        loadSpan.finish();
        std::cerr << rs.comb.size() + rs.mems.size()
                  << " components read.\n";
        std::cerr << "Sorting components.\n";
        for (const auto &w : diag.warnings())
            std::cerr << w << "\n";
        std::cerr << "Generating code.\n";
        tracing::Span genSpan("asim2c.codegen", "compile");
        if (genSpan.active())
            genSpan.setArgs("\"lang\":\"" + lang + "\"");
        std::string code = lang == "pascal" ? generatePascal(rs, opts)
                                            : generateCpp(rs, opts);
        genSpan.finish();
        std::ofstream out(outPath, std::ios::binary);
        out << code;
        if (!out) {
            std::cerr << "cannot write " << outPath << "\n";
            return 1;
        }
        std::cerr << "Wrote " << outPath << "\n";
        return 0;
    } catch (const SpecError &e) {
        std::cerr << e.what() << "\n";
        std::cerr << "Error in program (no code generated).\n";
        return 1;
    }
}

/**
 * @file
 * `asim-serve` — the multi-tenant simulation daemon (DESIGN.md §9);
 * `asim-serve --help` lists the flags.
 *
 * What the one-line help entries leave out: `--tcp=0` prints the
 * port it picked on startup; `--state-dir` holds one `<name>.ckpt`
 * per parked session; with `--evict-after-ms=0` only an explicit
 * EVICT parks a session; `--trace-out` records session lifecycle
 * events and engine spans and is written on shutdown.
 *
 * The daemon always runs with timing metrics enabled so a METRICS
 * scrape (or asim-run --server-metrics) returns populated request-
 * latency and engine histograms; the cost is confined to request
 * handling and engine boundaries (docs/OBSERVABILITY.md).
 *
 * The daemon runs until a client sends SHUTDOWN or it receives
 * SIGINT/SIGTERM; both paths park every live session to --state-dir
 * so a restarted daemon resumes them by name. Drive it with
 * `asim-run --connect=<endpoint>` or the serve/client.hh library.
 */

#include <atomic>
#include <csignal>
#include <iostream>
#include <string>

#include "cli/flags.hh"
#include "serve/server.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace {

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop = true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asim;

    serve::ServeOptions opts;
    opts.evictAfterMs = 60000;
    bool quiet = false;
    std::string traceOut;

    const cli::FlagTable flags{
        "asim-serve [options]",
        {
            {"--socket=PATH", "listen on a Unix-domain socket at PATH",
             cli::text(opts.unixPath)},
            {"--tcp=PORT", "also listen on loopback TCP (0: any free port)",
             cli::port(opts.tcpPort)},
            {"--state-dir=DIR", "parked sessions (default asim-serve-state)",
             cli::text(opts.stateDir)},
            {"--evict-after-ms=N", "park sessions idle for N ms (default "
             "60000; 0: never)", cli::number(opts.evictAfterMs)},
            {"--trace-out=FILE", "write a Chrome trace_event JSON trace",
             cli::text(traceOut)},
            {"--quiet", "no startup/shutdown chatter", cli::assign(quiet)},
        }};
    if (auto status = flags.parse(argc, argv, nullptr))
        return *status;
    if (opts.unixPath.empty() && opts.tcpPort < 0) {
        std::cerr << "asim-serve needs --socket=PATH and/or "
                     "--tcp=PORT\n";
        flags.printUsage(std::cerr);
        return 1;
    }

    // Daemon metrics are always live (see file comment); tracing only
    // when asked for.
    metrics::setTimingEnabled(true);
    if (!traceOut.empty() && !tracing::start(traceOut)) {
        std::cerr << "asim-serve: cannot write trace file " << traceOut
                  << "\n";
        return 1;
    }

    try {
        serve::ServeServer server(opts);
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        server.start();
        if (!quiet) {
            if (!opts.unixPath.empty())
                std::cerr << "asim-serve: listening on unix:"
                          << opts.unixPath << "\n";
            if (opts.tcpPort >= 0)
                std::cerr << "asim-serve: listening on tcp:127.0.0.1:"
                          << server.tcpPort() << "\n";
            std::cerr << "asim-serve: state dir " << opts.stateDir
                      << ", evict after " << opts.evictAfterMs
                      << " ms\n";
        }
        while (!server.waitForShutdown(200) && !gStop) {
        }
        if (!quiet) {
            std::cerr << "asim-serve: "
                      << (gStop ? "signal" : "shutdown command")
                      << ", parking sessions\n"
                      << server.statsJson() << "\n";
        }
        server.stop(/*parkSessions=*/true);
        tracing::stop();
        return 0;
    } catch (const SimError &e) {
        std::cerr << "asim-serve: " << e.what() << "\n";
        tracing::stop();
        return 1;
    }
}

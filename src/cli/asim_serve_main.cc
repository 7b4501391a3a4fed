/**
 * @file
 * `asim-serve` — the multi-tenant simulation daemon (DESIGN.md §9).
 *
 * Usage: asim-serve [options]
 *   --socket=PATH          listen on a Unix-domain socket at PATH
 *   --tcp=PORT             also listen on loopback TCP (0 picks an
 *                          ephemeral port, printed on startup)
 *   --state-dir=DIR        parked sessions, one <name>.ckpt each
 *                          (default asim-serve-state)
 *   --evict-after-ms=N     park sessions idle longer than N ms
 *                          (default 60000; 0 disables the sweep)
 *   --trace-out=FILE       write a Chrome trace_event JSON trace of
 *                          the daemon's lifetime (session lifecycle
 *                          events, engine spans) to FILE on shutdown
 *   --quiet                no startup/shutdown chatter
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
#include <cstdint>
#include <iostream>
#include <string>

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

void
usage()
{
    std::cerr << "usage: asim-serve [--socket=PATH] [--tcp=PORT]\n"
              << "                  [--state-dir=DIR] "
                 "[--evict-after-ms=N]\n"
              << "                  [--trace-out=FILE] [--quiet]\n";
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

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0) {
            opts.unixPath = arg.substr(9);
        } else if (arg.rfind("--tcp=", 0) == 0) {
            long long port = std::atoll(arg.c_str() + 6);
            if (port < 0 || port > 65535) {
                std::cerr << "--tcp wants a port in 0..65535\n";
                return 1;
            }
            opts.tcpPort = static_cast<int>(port);
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            opts.stateDir = arg.substr(12);
        } else if (arg.rfind("--evict-after-ms=", 0) == 0) {
            opts.evictAfterMs = std::atoll(arg.c_str() + 17);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 1;
        }
    }
    if (opts.unixPath.empty() && opts.tcpPort < 0) {
        std::cerr << "asim-serve needs --socket=PATH and/or "
                     "--tcp=PORT\n";
        usage();
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

/**
 * @file
 * `asim-run` — run an ASIM II specification through the Simulation
 * facade.
 *
 * Usage: asim-run [options] <spec-file>
 *   --engine=NAME        execution engine (default vm; see
 *                        --list-engines for the registry)
 *   --partitions=N       split one design's cycle across N worker
 *                        lanes (requires --engine=interp; results
 *                        are byte-identical to serial; small specs
 *                        stay serial — see sim/partition.hh)
 *   --synthetic=PRESET   simulate a generated scaling spec instead
 *                        of a file: 1k, 10k, 100k, 1m, or a plain
 *                        combinational component count
 *   --cycles=N           override the spec's `=` cycle count
 *   --io=MODE            interactive (default), null, or
 *                        script:<file> — scripted integer inputs,
 *                        thesis-format outputs on stdout
 *   --stats              print access statistics after the run
 *   --no-trace           suppress the per-cycle trace
 *   --fixed-shl          use repaired shift-left semantics
 *   --list-engines       list registered engines and exit
 *   --dump-bytecode      compile the spec for the vm engine, print
 *                        the dispatch mode, the canonical bytecode,
 *                        and the fused cycle stream with its
 *                        optimization summary, then exit
 *
 * Fault injection (analysis/fault.hh, analysis/campaign.hh):
 *   --inject=FAULT       perturb the run: FAULT is
 *                        component[cell]:bit:mode[@cycle] — without
 *                        @cycle a permanent stuck-at splice, with
 *                        @cycle a transient state upset at that
 *                        cycle boundary; mode is a registered
 *                        injector (set0, set1, toggle). Works for
 *                        single runs and --batch fleets alike
 *   --campaign=N         run a Monte-Carlo fault campaign of N
 *                        seeded injections: one golden run +
 *                        checkpoint, N perturbed restores in
 *                        parallel, outcomes classified
 *                        masked/sdc/fault/hang per component
 *                        (--cycles sets the horizon; --json for the
 *                        byte-reproducible report)
 *   --seed=S             campaign sampling seed (default 1)
 *   --golden-cycle=N     campaign golden-checkpoint cycle
 *                        (default horizon/2)
 *   --injector=MODE      campaign fault policy (default toggle)
 *   --campaign-watch=C:V campaign completion watchpoint: instances
 *                        that never reach component C == V hang
 *   --hang-budget=N      extra cycles past the horizon before a
 *                        watchpoint instance counts as hung
 *                        (default: one extra horizon)
 *   --campaign-splice    sample permanent stuck-at splices (re-run
 *                        from cycle zero) instead of transient
 *                        state upsets
 *   --list-injectors     list registered fault injectors and exit
 *
 * Checkpoints (sim/checkpoint.hh — portable across all engines):
 *   --save-state=F       write a checkpoint to F when the run ends
 *   --restore-from=F     restore the checkpoint F before running
 *                        (--cycles then counts cycles to execute
 *                        *this* run, on top of the restored cycle)
 *   --checkpoint-every=N additionally checkpoint to the --save-state
 *                        file every N cycles mid-run (with
 *                        --checkpoint-dir in batch mode: per-
 *                        instance periodic checkpoints)
 *
 * Batch mode (bulk-parallel execution through sim/batch.hh):
 *   --batch=N            run N independent instances of the spec off
 *                        one shared resolve
 *   --batch-manifest=F   run the jobs listed in manifest F (one
 *                        `spec [cycles=..] [io=..] [engine=..]
 *                        [count=..] [partitions=..]
 *                        [watch=comp:val]` per line)
 *   --threads=M          worker threads (default: all hardware
 *                        threads)
 *   --json=F             also write the batch report as JSON to F
 *                        (`-` for stdout)
 *   --checkpoint-dir=D   leave one checkpoint per instance in D,
 *                        inst-<i>.ckpt, carrying the instance's
 *                        output, captured trace and done flag; when D
 *                        already holds them from an earlier run of
 *                        the same batch, finished instances are
 *                        skipped and interrupted ones resume
 * Batch runs print a per-instance summary table instead of a trace
 * and exit 2 when any instance faulted.
 *
 * Remote mode (drive an asim-serve daemon; DESIGN.md §9):
 *   --connect=ENDPOINT   run against the daemon at ENDPOINT
 *                        (unix:<path>, tcp:<host>:<port>, or a bare
 *                        socket path) instead of in process; the
 *                        session's output/trace prints to stdout
 *   --session=NAME       session name (default: the spec's basename)
 *                        — reconnecting to a live or parked session
 *                        continues it where it left off
 *   --evict              park the session to disk after the run
 *   --close-session      delete the session after the run
 *   --server-stats       print the daemon's STATS JSON and exit
 *   --server-metrics     print the daemon's METRICS JSON (protocol
 *                        v3 metrics-registry exposition) and exit
 *   --shutdown-server    ask the daemon to shut down cleanly
 *
 * Observability (docs/OBSERVABILITY.md):
 *   --trace-out=F        write a Chrome trace_event / Perfetto JSON
 *                        trace of this invocation to F (spans for
 *                        parse/compile/run, per-lane partition
 *                        phases, batch instances, campaign stages)
 *                        with the final metrics registry embedded
 *                        as the `asim_metrics` key. Simulation
 *                        outputs are byte-identical with or without
 *                        tracing.
 * --save-state/--restore-from work remotely too: the daemon's
 * SNAPSHOT blob *is* a checkpoint file.
 *
 * Mirrors the thesis' interactive behavior: when no cycle count is
 * available it asks "Number of cycles to trace", and after the run it
 * offers "Continue to cycle (0 to quit)". Scripted runs are fully
 * non-interactive.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/campaign.hh"
#include "machines/synthetic.hh"
#include "serve/client.hh"
#include "sim/batch.hh"
#include "support/serialize.hh"
#include "sim/compiler.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "sim/vm.hh"
#include "support/tracing.hh"

namespace {

/** Finalize an open --trace-out file on every exit path (stop() is a
 *  no-op when tracing never started). */
struct TraceGuard
{
    ~TraceGuard() { asim::tracing::stop(); }
};

void
usage()
{
    std::cerr << "usage: asim-run [--engine=NAME] [--partitions=N]\n"
              << "                [--synthetic=PRESET] [--cycles=N]\n"
              << "                [--io=interactive|null|script:"
                 "<file>]\n"
              << "                [--stats] [--no-trace] "
                 "[--fixed-shl]\n"
              << "                [--inject=comp[cell]:bit:mode"
                 "[@cycle]]\n"
              << "                [--campaign=N] [--seed=S] "
                 "[--golden-cycle=N]\n"
              << "                [--injector=MODE] "
                 "[--campaign-watch=comp:val]\n"
              << "                [--hang-budget=N] "
                 "[--campaign-splice]\n"
              << "                [--save-state=<file>] "
                 "[--restore-from=<file>]\n"
              << "                [--checkpoint-every=N] "
                 "[--checkpoint-dir=<dir>]\n"
              << "                [--batch=N | "
                 "--batch-manifest=<file>]\n"
              << "                [--threads=M] [--json=<file>]\n"
              << "                [--connect=<endpoint>] "
                 "[--session=NAME]\n"
              << "                [--evict] [--close-session]\n"
              << "                [--server-stats] "
                 "[--server-metrics] [--shutdown-server]\n"
              << "                [--trace-out=<file>]\n"
              << "                [--list-engines] "
                 "[--list-injectors] [--dump-bytecode]\n"
              << "                <spec-file>\n";
}

/** Assemble and run a batch; returns the process exit code. */
int
runBatch(const asim::SimulationOptions &opts, const std::string &file,
         int64_t batchCount, const std::string &manifest,
         unsigned threads, int64_t cycles, bool stats,
         const std::string &jsonPath,
         const std::string &checkpointDir, uint64_t checkpointEvery)
{
    using namespace asim;

    BatchOptions bopts;
    bopts.threads = threads;
    bopts.captureState = false; // report channels only
    bopts.checkpointDir = checkpointDir;
    bopts.checkpointEvery = checkpointEvery;
    BatchRunner runner(bopts);

    if (!manifest.empty()) {
        SimulationOptions defaults = opts;
        defaults.specFile.clear();
        runner.loadManifest(
            manifest, defaults,
            cycles > 0 ? static_cast<uint64_t>(cycles) : 0);
    } else {
        BatchJob job;
        job.options = opts;
        job.options.specFile = file;
        if (cycles > 0)
            job.cycles = static_cast<uint64_t>(cycles);
        runner.addBatch(job, static_cast<size_t>(batchCount));
    }

    if (!checkpointDir.empty()) {
        size_t resumed = runner.resumeFromCheckpoints();
        if (resumed > 0) {
            std::cerr << "resuming " << resumed << " of "
                      << runner.jobCount() << " instances from "
                      << checkpointDir << "\n";
        }
    }

    BatchResult result = runner.run();
    std::cout << result.summaryTable();
    if (stats)
        std::cerr << result.aggregate.summary();
    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            std::cout << result.json();
        } else {
            std::ofstream out(jsonPath);
            if (!out) {
                std::cerr << "cannot write " << jsonPath << "\n";
                return 1;
            }
            out << result.json();
        }
    }
    return result.allOk() ? 0 : 2;
}

void
listEngines()
{
    for (const auto &[name, description] :
         asim::EngineRegistry::global().list()) {
        std::cout << name << "\t" << description << "\n";
    }
}

/** Campaign flags gathered from the command line. */
struct CampaignCliOptions
{
    int64_t runs = 0; ///< 0 = no campaign requested
    uint64_t seed = 1;
    uint64_t goldenCycle = 0;
    std::string injector = "toggle";
    bool splice = false;
    std::string watchName;
    int32_t watchValue = 0;
    uint64_t hangBudget = 0;
};

/** Run a fault campaign; returns the process exit code. */
int
runCampaign(const asim::SimulationOptions &opts,
            const std::string &file, const CampaignCliOptions &cli,
            unsigned threads, int64_t cycles, bool stats,
            const std::string &jsonPath)
{
    using namespace asim;

    CampaignOptions co;
    co.base = opts;
    if (!file.empty())
        co.base.specFile = file;
    co.runs = static_cast<uint64_t>(cli.runs);
    co.seed = cli.seed;
    co.goldenCycle = cli.goldenCycle;
    if (cycles > 0)
        co.horizon = static_cast<uint64_t>(cycles);
    co.injector = cli.injector;
    co.splice = cli.splice;
    co.watchName = cli.watchName;
    co.watchValue = cli.watchValue;
    co.hangBudget = cli.hangBudget;
    co.threads = threads;

    CampaignRunner runner(std::move(co));
    CampaignResult result = runner.run();
    std::cout << result.table();
    if (stats) {
        std::cerr << result.total.injections << " injections: "
                  << result.total.masked << " masked, "
                  << result.total.sdc << " sdc, "
                  << result.total.fault << " fault, "
                  << result.total.hang << " hang\n";
    }
    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            std::cout << result.json();
        } else {
            std::ofstream out(jsonPath);
            if (!out) {
                std::cerr << "cannot write " << jsonPath << "\n";
                return 1;
            }
            out << result.json();
        }
    }
    return 0;
}

/** Everything the remote (--connect) mode needs beyond `opts`. */
struct RemoteOptions
{
    std::string endpoint;
    std::string session;
    bool serverStats = false;
    bool serverMetrics = false;
    bool shutdownServer = false;
    bool evictAfter = false;
    bool closeAfter = false;
};

/** A --session default the daemon will accept, derived from the
 *  spec filename ("specs/counter.asim" -> "counter"). */
std::string
defaultSessionName(const std::string &file)
{
    std::string base = file;
    auto slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    auto dot = base.rfind('.');
    if (dot != std::string::npos && dot > 0)
        base = base.substr(0, dot);
    std::string name;
    for (char c : base) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        name.push_back(ok ? c : '_');
    }
    if (name.empty() || name.size() > 64)
        name = "cli";
    return name;
}

/** Drive an asim-serve daemon instead of simulating in process. */
int
runRemote(const RemoteOptions &remote,
          const asim::SimulationOptions &opts, const std::string &file,
          int64_t cycles, bool trace, bool stats,
          const std::string &saveState, const std::string &restoreFrom)
{
    using namespace asim;

    serve::ServeClient client(remote.endpoint);

    // Admin-only invocations need no spec at all.
    if ((file.empty() && opts.specText.empty()) ||
        remote.serverStats || remote.serverMetrics) {
        if (remote.serverStats)
            std::cout << client.statsJson() << "\n";
        if (remote.serverMetrics)
            std::cout << client.metricsJson() << "\n";
        if (remote.shutdownServer)
            client.shutdownServer();
        if (!remote.serverStats && !remote.serverMetrics &&
            !remote.shutdownServer) {
            std::cerr << "--connect without a spec file needs "
                         "--server-stats, --server-metrics, or "
                         "--shutdown-server\n";
            return 1;
        }
        return 0;
    }

    std::string specText = opts.specText;
    if (!file.empty()) {
        std::ifstream in(file);
        if (!in) {
            std::cerr << "cannot read " << file << "\n";
            return 1;
        }
        specText.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }

    serve::ServeClient::OpenOptions open;
    open.name = remote.session.empty()
                    ? (file.empty() ? "synthetic"
                                    : defaultSessionName(file))
                    : remote.session;
    open.specText = specText;
    open.engine = opts.engine;
    open.io = opts.ioMode == IoMode::Script
                  ? serve::SessionIo::Script
                  : serve::SessionIo::Null;
    open.inputs = opts.scriptInputs;
    open.trace = trace;
    open.aluFixed = opts.config.aluSemantics == AluSemantics::Fixed;
    open.partitions = opts.partitions;

    auto session = client.open(open);
    std::cerr << "session \"" << open.name << "\" (id " << session.id
              << ") on " << remote.endpoint << " at cycle "
              << session.cycle
              << (session.resumed ? " (resumed from checkpoint)" : "")
              << "\n";

    if (!restoreFrom.empty()) {
        std::ifstream ckpt(restoreFrom, std::ios::binary);
        if (!ckpt) {
            std::cerr << "cannot read " << restoreFrom << "\n";
            return 1;
        }
        std::string blob{std::istreambuf_iterator<char>(ckpt),
                         std::istreambuf_iterator<char>()};
        uint64_t cycle = client.restore(session.id, blob);
        std::cerr << "restored " << restoreFrom << " at cycle "
                  << cycle << "\n";
    }

    int64_t todo = cycles >= 0 ? cycles : session.defaultCycles;
    if (todo < 0) {
        std::cerr << "spec names no cycle count; pass --cycles=N\n";
        return 1;
    }
    auto run = client.run(session.id, static_cast<uint64_t>(todo));
    std::cout << run.output;
    std::cerr << "ran to cycle " << run.cycle << "\n";

    if (!saveState.empty()) {
        std::string blob = client.snapshot(session.id);
        writeFileAtomic(saveState, blob);
        std::cerr << "saved checkpoint " << saveState << " at cycle "
                  << run.cycle << "\n";
    }
    if (stats)
        std::cerr << client.statsJson() << "\n";
    if (remote.closeAfter)
        client.closeSession(session.id);
    else if (remote.evictAfter)
        client.evict(session.id);
    if (remote.shutdownServer)
        client.shutdownServer();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asim;

    std::string file;
    SimulationOptions opts;
    opts.ioMode = IoMode::Interactive;
    int64_t cycles = -1;
    bool stats = false;
    bool trace = true;
    bool interactive = true;
    bool ioFlagSeen = false;
    int64_t batchCount = 0;
    std::string manifest;
    unsigned threads = 0;
    std::string jsonPath;
    std::string saveState;
    std::string restoreFrom;
    std::string checkpointDir;
    uint64_t checkpointEvery = 0;
    bool dumpBytecode = false;
    std::string synthetic;
    std::string traceOut;
    RemoteOptions remote;
    CampaignCliOptions campaign;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--engine=", 0) == 0) {
            opts.engine = arg.substr(9);
        } else if (arg.rfind("--partitions=", 0) == 0) {
            long long p = std::atoll(arg.c_str() + 13);
            if (p <= 0) {
                std::cerr << "--partitions wants a positive count\n";
                return 1;
            }
            opts.partitions = static_cast<unsigned>(p);
        } else if (arg.rfind("--synthetic=", 0) == 0) {
            synthetic = arg.substr(12);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg.rfind("--cycles=", 0) == 0) {
            cycles = std::atoll(arg.c_str() + 9);
        } else if (arg.rfind("--batch=", 0) == 0) {
            batchCount = std::atoll(arg.c_str() + 8);
            if (batchCount <= 0) {
                std::cerr << "--batch wants a positive count\n";
                return 1;
            }
        } else if (arg.rfind("--batch-manifest=", 0) == 0) {
            manifest = arg.substr(17);
        } else if (arg.rfind("--threads=", 0) == 0) {
            long long t = std::atoll(arg.c_str() + 10);
            if (t <= 0) {
                std::cerr << "--threads wants a positive count\n";
                return 1;
            }
            threads = static_cast<unsigned>(t);
        } else if (arg.rfind("--json=", 0) == 0) {
            jsonPath = arg.substr(7);
        } else if (arg.rfind("--save-state=", 0) == 0) {
            saveState = arg.substr(13);
        } else if (arg.rfind("--restore-from=", 0) == 0) {
            restoreFrom = arg.substr(15);
        } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
            checkpointDir = arg.substr(17);
        } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
            long long n = std::atoll(arg.c_str() + 19);
            if (n <= 0) {
                std::cerr
                    << "--checkpoint-every wants a positive count\n";
                return 1;
            }
            checkpointEvery = static_cast<uint64_t>(n);
        } else if (arg == "--io=interactive") {
            opts.ioMode = IoMode::Interactive;
            interactive = true;
            ioFlagSeen = true;
        } else if (arg == "--io=null") {
            opts.ioMode = IoMode::Null;
            interactive = false;
            ioFlagSeen = true;
        } else if (arg.rfind("--io=script:", 0) == 0) {
            opts.ioMode = IoMode::Script;
            interactive = false;
            ioFlagSeen = true;
            try {
                opts.scriptInputs =
                    Simulation::loadScript(arg.substr(12));
            } catch (const SimError &e) {
                std::cerr << e.what() << "\n";
                return 1;
            }
        } else if (arg.rfind("--inject=", 0) == 0) {
            opts.fault = arg.substr(9);
        } else if (arg.rfind("--campaign=", 0) == 0) {
            campaign.runs = std::atoll(arg.c_str() + 11);
            if (campaign.runs <= 0) {
                std::cerr << "--campaign wants a positive count\n";
                return 1;
            }
        } else if (arg.rfind("--seed=", 0) == 0) {
            campaign.seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
        } else if (arg.rfind("--golden-cycle=", 0) == 0) {
            campaign.goldenCycle =
                std::strtoull(arg.c_str() + 15, nullptr, 10);
        } else if (arg.rfind("--injector=", 0) == 0) {
            campaign.injector = arg.substr(11);
        } else if (arg.rfind("--campaign-watch=", 0) == 0) {
            std::string watch = arg.substr(17);
            auto colon = watch.rfind(':');
            if (colon == std::string::npos || colon == 0) {
                std::cerr << "--campaign-watch wants "
                             "component:value\n";
                return 1;
            }
            campaign.watchName = watch.substr(0, colon);
            campaign.watchValue = static_cast<int32_t>(
                std::strtol(watch.c_str() + colon + 1, nullptr, 0));
        } else if (arg.rfind("--hang-budget=", 0) == 0) {
            campaign.hangBudget =
                std::strtoull(arg.c_str() + 14, nullptr, 10);
        } else if (arg == "--campaign-splice") {
            campaign.splice = true;
        } else if (arg == "--list-injectors") {
            for (const std::string &name :
                 FaultInjectorRegistry::global().list()) {
                std::cout << name << "\n";
            }
            return 0;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--no-trace") {
            trace = false;
        } else if (arg == "--fixed-shl") {
            opts.config.aluSemantics = AluSemantics::Fixed;
        } else if (arg.rfind("--connect=", 0) == 0) {
            remote.endpoint = arg.substr(10);
        } else if (arg.rfind("--session=", 0) == 0) {
            remote.session = arg.substr(10);
        } else if (arg == "--server-stats") {
            remote.serverStats = true;
        } else if (arg == "--server-metrics") {
            remote.serverMetrics = true;
        } else if (arg == "--shutdown-server") {
            remote.shutdownServer = true;
        } else if (arg == "--evict") {
            remote.evictAfter = true;
        } else if (arg == "--close-session") {
            remote.closeAfter = true;
        } else if (arg == "--list-engines") {
            listEngines();
            return 0;
        } else if (arg == "--dump-bytecode") {
            dumpBytecode = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 1;
        } else {
            file = arg;
        }
    }
    TraceGuard traceGuard;
    if (!traceOut.empty() && !tracing::start(traceOut)) {
        std::cerr << "cannot write trace file " << traceOut << "\n";
        return 1;
    }
    if (!synthetic.empty()) {
        if (!file.empty()) {
            std::cerr << "--synthetic and a spec file are mutually "
                         "exclusive\n";
            return 1;
        }
        try {
            opts.specText =
                generateSyntheticText(syntheticPreset(synthetic));
        } catch (const SpecError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
        // Corpus specs are I/O-free and name their own cycle count;
        // never prompt interactively.
        if (!ioFlagSeen)
            opts.ioMode = IoMode::Null;
        interactive = false;
    }
    if (!remote.endpoint.empty()) {
        // Remote mode: the daemon simulates; this process is a
        // protocol client. Interactive I/O cannot cross the wire.
        if (!opts.fault.empty() || campaign.runs > 0) {
            std::cerr << "--inject/--campaign run in process; they "
                         "are not supported with --connect\n";
            return 1;
        }
        try {
            return runRemote(remote, opts, file, cycles, trace, stats,
                             saveState, restoreFrom);
        } catch (const SimError &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }
    if (remote.serverStats || remote.shutdownServer ||
        remote.evictAfter || remote.closeAfter ||
        !remote.session.empty()) {
        std::cerr << "--session/--server-stats/--shutdown-server/"
                     "--evict/--close-session need --connect\n";
        return 1;
    }

    if (file.empty() && manifest.empty() && synthetic.empty()) {
        usage();
        return 1;
    }

    if (dumpBytecode) {
        // Compile-only path: show what the vm engine will execute.
        if (!file.empty())
            opts.specFile = file;
        try {
            ResolvedSpec rs = Simulation::loadSpec(opts);
            Program prog =
                compileProgram(rs, opts.compiler, trace);
            std::cout << "dispatch: " << vmDispatchMode() << "\n"
                      << prog.disassemble();
        } catch (const SpecError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        } catch (const SimError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
        return 0;
    }

    if (campaign.runs > 0) {
        if (batchCount > 0 || !manifest.empty()) {
            std::cerr << "--campaign and --batch/--batch-manifest "
                         "are mutually exclusive\n";
            return 1;
        }
        if (!opts.fault.empty()) {
            std::cerr << "--campaign samples its own faults; it is "
                         "mutually exclusive with --inject\n";
            return 1;
        }
        if (!saveState.empty() || !restoreFrom.empty() ||
            !checkpointDir.empty()) {
            std::cerr << "--campaign manages its own golden "
                         "checkpoint; drop --save-state/"
                         "--restore-from/--checkpoint-dir\n";
            return 1;
        }
        // Campaign instances run concurrently; without an explicit
        // --io choice they run with null I/O, never interactive.
        if (!ioFlagSeen)
            opts.ioMode = IoMode::Null;
        try {
            return runCampaign(opts, file, campaign, threads, cycles,
                               stats, jsonPath);
        } catch (const SpecError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        } catch (const SimError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }

    if (batchCount > 0 || !manifest.empty()) {
        if (batchCount > 0 && !manifest.empty()) {
            std::cerr << "--batch and --batch-manifest are mutually "
                         "exclusive\n";
            return 1;
        }
        if (manifest.empty() && file.empty() && synthetic.empty()) {
            usage();
            return 1;
        }
        if (!saveState.empty() || !restoreFrom.empty()) {
            std::cerr << "--save-state/--restore-from are single-run "
                         "flags; batches use --checkpoint-dir\n";
            return 1;
        }
        // Batch instances run concurrently; without an explicit
        // --io choice they run with null I/O, never interactive.
        if (!ioFlagSeen)
            opts.ioMode = IoMode::Null;
        try {
            return runBatch(opts, file, std::max<int64_t>(batchCount, 1),
                            manifest, threads, cycles, stats,
                            jsonPath, checkpointDir, checkpointEvery);
        } catch (const SpecError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        } catch (const SimError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }

    if (!checkpointDir.empty()) {
        std::cerr << "--checkpoint-dir is a batch flag; single runs "
                     "use --save-state/--restore-from\n";
        return 1;
    }
    if (checkpointEvery != 0 && saveState.empty()) {
        std::cerr << "--checkpoint-every needs --save-state (the "
                     "file the periodic checkpoints go to)\n";
        return 1;
    }

    try {
        if (!file.empty())
            opts.specFile = file;
        opts.traceStream = trace ? &std::cout : nullptr;
        Simulation sim(opts);
        for (const auto &w : sim.diagnostics().warnings())
            std::cerr << w << "\n";
        std::cerr << sim.resolved().spec.comps.size()
                  << " components read.\n";
        if (const auto *pi = dynamic_cast<const PartitionedInterpreter *>(
                &sim.engine())) {
            std::cerr << pi->plan().summary() << "\n";
        }

        if (!restoreFrom.empty()) {
            sim.restoreCheckpoint(restoreFrom);
            std::cerr << "restored " << restoreFrom << " at cycle "
                      << sim.cycle() << "\n";
        }

        int64_t todo = cycles;
        if (todo < 0)
            todo = sim.defaultCycles();
        if (todo < 0) {
            if (!interactive) {
                std::cerr << "spec names no cycle count; pass "
                             "--cycles=N\n";
                return 1;
            }
            std::cout << "Number of cycles to trace\n";
            std::cin >> todo;
            ++todo; // thesis loop is inclusive
        }

        // One run step, checkpointing every checkpointEvery cycles
        // when asked to.
        auto runChunked = [&](uint64_t n) {
            while (n > 0) {
                uint64_t chunk = n;
                if (checkpointEvery != 0)
                    chunk = std::min(chunk, checkpointEvery);
                sim.run(chunk);
                n -= chunk;
                if (checkpointEvery != 0 && n > 0)
                    sim.saveCheckpoint(saveState);
            }
        };

        while (todo > 0) {
            runChunked(static_cast<uint64_t>(todo));
            // Explicit --cycles or a scripted/null run: no
            // interactive continue.
            if (cycles >= 0 || !interactive)
                break;
            std::cout << "Continue to cycle (0 to quit)\n";
            int64_t target = 0;
            if (!(std::cin >> target) || target <= 0)
                break;
            todo = target - static_cast<int64_t>(sim.cycle()) + 1;
        }

        if (!saveState.empty()) {
            sim.saveCheckpoint(saveState);
            std::cerr << "saved checkpoint " << saveState
                      << " at cycle " << sim.cycle() << "\n";
        }
        if (stats)
            std::cerr << sim.stats().summary();
        return 0;
    } catch (const SpecError &e) {
        std::cerr << e.what() << "\n";
        std::cerr << "Error in program (no code generated).\n";
        return 1;
    } catch (const SimError &e) {
        std::cerr << "runtime error: " << e.what() << "\n";
        return 2;
    }
}

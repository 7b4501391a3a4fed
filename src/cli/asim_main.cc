/**
 * @file
 * `asim-run` — run an ASIM II specification through the Simulation
 * facade; `asim-run --help` lists the flags.
 *
 * Mirrors the thesis' interactive behavior: when no cycle count is
 * available it asks "Number of cycles to trace", and after the run it
 * offers "Continue to cycle (0 to quit)". Scripted runs are fully
 * non-interactive.
 *
 * What the one-line help entries leave out:
 *  - Exit status: 0 on success; 1 for bad arguments, a conflicting
 *    flag combination or a bad specification; 2 for a runtime error,
 *    a faulted batch instance, or a failed remote call.
 *  - With --restore-from, --cycles counts the cycles this run adds on
 *    top of the restored cycle. --checkpoint-every writes to the
 *    --save-state file in single runs and per instance under
 *    --checkpoint-dir in batches; a rerun of the same batch against
 *    that directory skips finished instances and resumes the rest.
 *  - Batch and campaign runs print a summary table instead of a
 *    trace; without an explicit --io they run with null I/O.
 *  - A manifest line is `spec [cycles=N] [io=F] [engine=E] [count=N]
 *    [partitions=N] [fault=F] [restore=F] [watch=C:V]`
 *    (BatchRunner::loadManifest).
 *  - --inject without @cycle splices a permanent stuck-at fault; with
 *    @cycle it upsets machine state at that cycle boundary
 *    (analysis/fault.hh). A campaign takes one golden run plus
 *    checkpoint and classifies each perturbed restore as
 *    masked/sdc/fault/hang (analysis/campaign.hh); for a given seed
 *    its --json report is byte-reproducible.
 *  - In remote mode the session's output and trace print to stdout,
 *    reconnecting to a live or parked session continues it, and
 *    --save-state/--restore-from move the daemon's SNAPSHOT blob,
 *    which is an ordinary checkpoint file.
 *  - --partitions needs --engine=interp, gives byte-identical
 *    results at any lane count, and leaves small specs serial
 *    (sim/partition.hh).
 *  - --trace-out records spans for parse/compile/run, per-lane
 *    partition phases, batch instances and campaign stages, with the
 *    final metrics registry embedded as `asim_metrics`; simulation
 *    output is byte-identical with or without it.
 *  - Numeric values are decimal or 0x-hexadecimal; anything else,
 *    including a value out of the field's range, is an error that
 *    names the flag.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.hh"
#include "cli/flags.hh"
#include "machines/synthetic.hh"
#include "serve/client.hh"
#include "sim/batch.hh"
#include "sim/compiler.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "support/serialize.hh"
#include "support/tracing.hh"

namespace {

using namespace asim;

/** Finalize an open --trace-out file on every exit path (stop() is a
 *  no-op when tracing never started). */
struct TraceGuard
{
    ~TraceGuard() { tracing::stop(); }
};

/** Everything one invocation asks for. Flags bind straight into the
 *  library option structs; the other fields belong to this front
 *  end. */
struct Invocation
{
    SimulationOptions sim;
    BatchOptions batch;
    CampaignOptions campaign;
    serve::SessionRecipe session;

    int64_t cycles = -1; ///< -1: the spec's own count
    bool stats = false;
    bool trace = true;
    bool ioFlagSeen = false;
    std::optional<SyntheticOptions> synthetic;
    uint64_t batchCount = 0;
    std::string manifest;
    std::string jsonPath;
    std::string saveState;
    std::string restoreFrom;
    std::string traceOut;
    bool dumpBytecode = false;
    bool listEngines = false;
    bool listInjectors = false;

    std::string endpoint;
    bool serverStats = false;
    bool serverMetrics = false;
    bool shutdownServer = false;
    bool evict = false;
    bool closeSession = false;

    Invocation()
    {
        sim.ioMode = IoMode::Interactive;
        batch.captureState = false; // report channels only
        campaign.runs = 0;          // no campaign unless asked for
    }
};

cli::FlagTable
flagTable(Invocation &inv)
{
    using cli::assign, cli::count, cli::number, cli::text;
    SimulationOptions &sim = inv.sim;
    CampaignOptions &camp = inv.campaign;
    BatchOptions &batch = inv.batch;
    auto io = [&inv](const std::string &v) {
        if (v == "interactive" || v == "null") {
            inv.sim.ioMode = v == "null" ? IoMode::Null : IoMode::Interactive;
        } else if (v.rfind("script:", 0) == 0) {
            inv.sim.ioMode = IoMode::Script;
            inv.sim.scriptInputs = Simulation::loadScript(v.substr(7));
        } else {
            throw cli::BadValue("interactive, null or script:<file>");
        }
        inv.ioFlagSeen = true;
    };
    auto synthetic = [&inv](const std::string &v) {
        inv.synthetic = syntheticPreset(v);
    };
    auto fixedShl = [&sim](const std::string &) {
        sim.config.aluSemantics = AluSemantics::Fixed;
    };
    cli::FlagTable table{"asim-run [options] <spec-file>", {}};
    table.flags = {
        {"--engine=NAME", "execution engine (default vm)", text(sim.engine)},
        {"--partitions=N",
         "worker lanes for one design, at most " +
             std::to_string(kMaxPartitions) + " (interp engine)",
         count(sim.partitions, kMaxPartitions)},
        {"--synthetic=PRESET", "generated spec: 1k, 10k, 100k, 1m or a count",
         synthetic},
        {"--cycles=N", "override the spec's cycle count", number(inv.cycles)},
        {"--io=MODE", "interactive (default), null, or script:<file>", io},
        {"--stats", "print access statistics after the run", assign(inv.stats)},
        {"--no-trace", "suppress the per-cycle trace",
         assign(inv.trace, false)},
        {"--fixed-shl", "use repaired shift-left semantics", fixedShl},
        {"--list-engines", "list the engines and exit",
         assign(inv.listEngines)},
        {"--dump-bytecode", "print the vm bytecode for the spec and exit",
         assign(inv.dumpBytecode)},
        {"", "Fault injection:"},
        {"--inject=FAULT", "component[cell]:bit:mode[@cycle]", text(sim.fault)},
        {"--campaign=N", "run N seeded fault injections", count(camp.runs)},
        {"--seed=S", "campaign sampling seed (default 1)", number(camp.seed)},
        {"--golden-cycle=N", "golden checkpoint cycle (default horizon/2)",
         number(camp.goldenCycle)},
        {"--injector=MODE", "campaign fault policy (default toggle)",
         text(camp.injector)},
        {"--campaign-watch=C:V", "instances that never reach C == V hang",
         cli::componentValue(camp.watchName, camp.watchValue)},
        {"--hang-budget=N", "cycles past the horizon before a watch hangs",
         number(camp.hangBudget)},
        {"--campaign-splice", "sample stuck-at splices, not state upsets",
         assign(camp.splice)},
        {"--list-injectors", "list the fault injectors and exit",
         assign(inv.listInjectors)},
        {"", "Checkpoints (portable across engines):"},
        {"--save-state=FILE", "checkpoint when the run ends",
         text(inv.saveState)},
        {"--restore-from=FILE", "restore a checkpoint before running",
         text(inv.restoreFrom)},
        {"--checkpoint-every=N", "also checkpoint every N cycles",
         count(batch.checkpointEvery)},
        {"", "Batch mode (exit 2 when an instance faulted):"},
        {"--batch=N", "run N instances off one resolve", count(inv.batchCount)},
        {"--batch-manifest=FILE", "run the jobs FILE lists",
         text(inv.manifest)},
        {"--threads=M", "batch/splice-campaign threads (default: all; transient campaigns run on 1)", count(batch.threads)},
        {"--json=FILE", "write the report as JSON (- for stdout)",
         text(inv.jsonPath)},
        {"--checkpoint-dir=DIR", "one resumable checkpoint per instance",
         text(batch.checkpointDir)},
        {"", "Remote mode (drive an asim-serve daemon):"},
        {"--connect=ENDPOINT", "unix:<path>, tcp:<host>:<port> or a path",
         text(inv.endpoint)},
        {"--session=NAME", "session name (default: the spec's basename)",
         text(inv.session.name)},
        {"--evict", "park the session after the run", assign(inv.evict)},
        {"--close-session", "delete the session after the run",
         assign(inv.closeSession)},
        {"--server-stats", "print STATS JSON and exit",
         assign(inv.serverStats)},
        {"--server-metrics", "print METRICS JSON and exit",
         assign(inv.serverMetrics)},
        {"--shutdown-server", "shut the daemon down",
         assign(inv.shutdownServer)},
        {"", "Observability:"},
        {"--trace-out=FILE", "write a Chrome trace_event JSON trace",
         text(inv.traceOut)},
    };
    return table;
}

/** Write a --json report ("-" is stdout); false once reported. */
bool
writeJson(const std::string &path, const std::string &json)
{
    if (path == "-") {
        std::cout << json;
        return true;
    }
    std::ofstream out(path);
    if (out << json)
        return true;
    std::cerr << "cannot write " << path << "\n";
    return false;
}

int
runBatch(const Invocation &inv)
{
    BatchRunner runner(inv.batch);
    const uint64_t cycles = std::max<int64_t>(inv.cycles, 0);
    if (!inv.manifest.empty()) {
        SimulationOptions defaults = inv.sim;
        defaults.specFile.clear();
        runner.loadManifest(inv.manifest, defaults, cycles);
    } else {
        BatchJob job;
        job.options = inv.sim;
        job.cycles = cycles;
        runner.addBatch(job, inv.batchCount);
    }

    if (!inv.batch.checkpointDir.empty()) {
        size_t resumed = runner.resumeFromCheckpoints();
        if (resumed > 0) {
            std::cerr << "resuming " << resumed << " of "
                      << runner.jobCount() << " instances from "
                      << inv.batch.checkpointDir << "\n";
        }
    }

    BatchResult result = runner.run();
    std::cout << result.summaryTable();
    if (inv.stats)
        std::cerr << result.aggregate.summary();
    if (!inv.jsonPath.empty() && !writeJson(inv.jsonPath, result.json()))
        return 1;
    return result.allOk() ? 0 : 2;
}

int
runCampaign(const Invocation &inv)
{
    CampaignOptions co = inv.campaign;
    co.base = inv.sim;
    co.horizon = std::max<int64_t>(inv.cycles, 0);
    co.threads = inv.batch.threads;

    CampaignResult result = CampaignRunner(std::move(co)).run();
    std::cout << result.table();
    if (inv.stats) {
        std::cerr << result.total.injections << " injections: "
                  << result.total.masked << " masked, "
                  << result.total.sdc << " sdc, "
                  << result.total.fault << " fault, "
                  << result.total.hang << " hang\n";
    }
    if (!inv.jsonPath.empty() && !writeJson(inv.jsonPath, result.json()))
        return 1;
    return 0;
}

/** Compile-only path: show what the vm engine will execute. */
int
dumpBytecode(const Invocation &inv)
{
    ResolvedSpec rs = Simulation::loadSpec(inv.sim);
    std::cout << compileProgram(rs, {}, inv.trace).disassemble();
    return 0;
}

/** A --session default the daemon will accept, derived from the
 *  spec filename ("specs/counter.asim" -> "counter"). */
std::string
defaultSessionName(const std::string &file)
{
    std::string name = std::filesystem::path(file).stem().string();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
            c != '_' && c != '-')
            c = '_';
    }
    return name.empty() || name.size() > 64 ? "cli" : name;
}

/** Drive an asim-serve daemon instead of simulating in process. */
int
runRemote(const Invocation &inv)
{
    const std::string &file = inv.sim.specFile;
    serve::ServeClient client(inv.endpoint);

    // Admin-only invocations need no spec at all.
    if ((file.empty() && inv.sim.specText.empty()) || inv.serverStats ||
        inv.serverMetrics) {
        if (inv.serverStats)
            std::cout << client.statsJson() << "\n";
        if (inv.serverMetrics)
            std::cout << client.metricsJson() << "\n";
        if (inv.shutdownServer)
            client.shutdownServer();
        if (!inv.serverStats && !inv.serverMetrics &&
            !inv.shutdownServer) {
            std::cerr << "--connect without a spec file needs "
                         "--server-stats, --server-metrics, or "
                         "--shutdown-server\n";
            return 1;
        }
        return 0;
    }

    serve::SessionRecipe open = inv.session;
    open.specText = inv.sim.specText;
    if (!file.empty()) {
        std::ifstream in(file);
        if (!in) {
            std::cerr << "cannot read " << file << "\n";
            return 1;
        }
        open.specText.assign(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    if (open.name.empty())
        open.name = file.empty() ? "synthetic" : defaultSessionName(file);
    open.engine = inv.sim.engine;
    open.io = inv.sim.ioMode == IoMode::Script ? serve::SessionIo::Script
                                               : serve::SessionIo::Null;
    open.inputs = inv.sim.scriptInputs;
    open.trace = inv.trace;
    open.aluFixed = inv.sim.config.aluSemantics == AluSemantics::Fixed;
    open.partitions = inv.sim.partitions;

    auto session = client.open(open);
    std::cerr << "session \"" << open.name << "\" (id " << session.id
              << ") on " << inv.endpoint << " at cycle " << session.cycle
              << (session.resumed ? " (resumed from checkpoint)" : "")
              << "\n";

    if (!inv.restoreFrom.empty()) {
        std::ifstream ckpt(inv.restoreFrom, std::ios::binary);
        if (!ckpt) {
            std::cerr << "cannot read " << inv.restoreFrom << "\n";
            return 1;
        }
        std::string blob{std::istreambuf_iterator<char>(ckpt),
                         std::istreambuf_iterator<char>()};
        uint64_t cycle = client.restore(session.id, blob);
        std::cerr << "restored " << inv.restoreFrom << " at cycle "
                  << cycle << "\n";
    }

    int64_t todo = inv.cycles >= 0 ? inv.cycles : session.defaultCycles;
    if (todo < 0) {
        std::cerr << "spec names no cycle count; pass --cycles=N\n";
        return 1;
    }
    auto run = client.run(session.id, static_cast<uint64_t>(todo));
    std::cout << run.output;
    std::cerr << "ran to cycle " << run.cycle << "\n";

    if (!inv.saveState.empty()) {
        std::string blob = client.snapshot(session.id);
        writeFileAtomic(inv.saveState, blob);
        std::cerr << "saved checkpoint " << inv.saveState << " at cycle "
                  << run.cycle << "\n";
    }
    if (inv.stats)
        std::cerr << client.statsJson() << "\n";
    if (inv.closeSession)
        client.closeSession(session.id);
    else if (inv.evict)
        client.evict(session.id);
    if (inv.shutdownServer)
        client.shutdownServer();
    return 0;
}

/** One in-process run, traced to stdout unless --no-trace. */
int
runSingle(Invocation &inv)
{
    const bool interactive =
        inv.sim.ioMode == IoMode::Interactive && !inv.synthetic;
    const std::string &saveState = inv.saveState;
    const uint64_t every = inv.batch.checkpointEvery;
    try {
        inv.sim.traceStream = inv.trace ? &std::cout : nullptr;
        Simulation sim(inv.sim);
        for (const auto &w : sim.diagnostics().warnings())
            std::cerr << w << "\n";
        const ResolvedSpec &rs = sim.resolved();
        std::cerr << rs.comb.size() + rs.mems.size()
                  << " components read.\n";
        if (const auto *pi = dynamic_cast<const PartitionedInterpreter *>(
                &sim.engine())) {
            std::cerr << pi->plan().summary() << "\n";
        }

        if (!inv.restoreFrom.empty()) {
            sim.restoreCheckpoint(inv.restoreFrom);
            std::cerr << "restored " << inv.restoreFrom << " at cycle "
                      << sim.cycle() << "\n";
        }

        int64_t todo = inv.cycles;
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

        // One run step, checkpointing every `every` cycles when
        // asked to.
        auto runChunked = [&](uint64_t n) {
            while (n > 0) {
                uint64_t chunk = every != 0 ? std::min(n, every) : n;
                sim.run(chunk);
                n -= chunk;
                if (every != 0 && n > 0)
                    sim.saveCheckpoint(saveState);
            }
        };

        while (todo > 0) {
            runChunked(static_cast<uint64_t>(todo));
            // Explicit --cycles or a scripted/null run: no
            // interactive continue.
            if (inv.cycles >= 0 || !interactive)
                break;
            std::cout << "Continue to cycle (0 to quit)\n";
            int64_t target = 0;
            if (!(std::cin >> target) || target <= 0)
                break;
            todo = target - static_cast<int64_t>(sim.cycle()) + 1;
        }

        if (!saveState.empty()) {
            sim.saveCheckpoint(saveState);
            std::cerr << "saved checkpoint " << saveState << " at cycle "
                      << sim.cycle() << "\n";
        }
        if (inv.stats)
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

} // namespace

int
main(int argc, char **argv)
{
    Invocation inv;
    const cli::FlagTable flags = flagTable(inv);
    std::vector<std::string> files;
    if (auto status = flags.parse(argc, argv, &files))
        return *status;
    if (!files.empty())
        inv.sim.specFile = files.back();

    if (inv.listInjectors) {
        for (const FaultPolicy &policy : kFaultPolicies)
            std::cout << policy.name << "\n";
        return 0;
    }
    if (inv.listEngines) {
        for (const EngineInfo &e : kEngines)
            std::cout << e.name << "\t" << e.description << "\n";
        return 0;
    }

    TraceGuard traceGuard;
    if (!inv.traceOut.empty() && !tracing::start(inv.traceOut)) {
        std::cerr << "cannot write trace file " << inv.traceOut << "\n";
        return 1;
    }

    // The mode checks, first match reported. Campaign, batch and
    // single-run rules apply to a spec that will run in process.
    const bool remote = !inv.endpoint.empty();
    const bool campaign = inv.campaign.runs > 0;
    const bool batch = inv.batchCount > 0 || !inv.manifest.empty();
    const bool noSpec =
        inv.sim.specFile.empty() && !inv.synthetic && inv.manifest.empty();
    const bool local = !remote && !noSpec && !inv.dumpBytecode;
    const bool single = local && !campaign && !batch;
    const bool checkpointFlags =
        !inv.saveState.empty() || !inv.restoreFrom.empty();
    const std::pair<bool, const char *> rules[] = {
        {inv.synthetic && !inv.sim.specFile.empty(),
         "--synthetic and a spec file are mutually exclusive"},
        {remote && (!inv.sim.fault.empty() || campaign),
         "--inject/--campaign run in process; they are not supported "
         "with --connect"},
        {!remote && (inv.serverStats || inv.shutdownServer || inv.evict ||
                     inv.closeSession || !inv.session.name.empty()),
         "--session/--server-stats/--shutdown-server/--evict/"
         "--close-session need --connect"},
        {local && campaign && batch,
         "--campaign and --batch/--batch-manifest are mutually exclusive"},
        {local && campaign && !inv.sim.fault.empty(),
         "--campaign samples its own faults; it is mutually exclusive "
         "with --inject"},
        {local && campaign &&
             (checkpointFlags || !inv.batch.checkpointDir.empty()),
         "--campaign manages its own golden checkpoint; drop "
         "--save-state/--restore-from/--checkpoint-dir"},
        {local && !campaign && inv.batchCount > 0 && !inv.manifest.empty(),
         "--batch and --batch-manifest are mutually exclusive"},
        {local && !campaign && batch && checkpointFlags,
         "--save-state/--restore-from are single-run flags; batches use "
         "--checkpoint-dir"},
        {single && !inv.batch.checkpointDir.empty(),
         "--checkpoint-dir is a batch flag; single runs use "
         "--save-state/--restore-from"},
        {single && inv.batch.checkpointEvery != 0 && inv.saveState.empty(),
         "--checkpoint-every needs --save-state (the file the periodic "
         "checkpoints go to)"},
    };
    for (const auto &[broken, message] : rules) {
        if (broken) {
            std::cerr << message << "\n";
            return 1;
        }
    }

    if (inv.synthetic) {
        inv.sim.specText = generateSyntheticText(*inv.synthetic);
        // Corpus specs are I/O-free and name their own cycle count;
        // never prompt interactively.
        if (!inv.ioFlagSeen)
            inv.sim.ioMode = IoMode::Null;
    }
    if (remote) {
        // The daemon simulates; this process is a protocol client.
        try {
            return runRemote(inv);
        } catch (const SimError &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }
    if (noSpec) {
        flags.printUsage(std::cerr);
        return 1;
    }
    if (single) {
        // A bad engine, fault or flag combination is a bad argument:
        // exit 1 with the batch's text, before the spec is read.
        try {
            Simulation::checkOptions(inv.sim);
        } catch (const std::runtime_error &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
        return runSingle(inv);
    }

    // Batch and campaign instances run concurrently; without an
    // explicit --io choice they run with null I/O, never interactive.
    if (!inv.ioFlagSeen)
        inv.sim.ioMode = IoMode::Null;
    try {
        if (inv.dumpBytecode)
            return dumpBytecode(inv);
        return campaign ? runCampaign(inv) : runBatch(inv);
    } catch (const SpecError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const SimError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}

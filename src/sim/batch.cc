#include "sim/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>

#include "analysis/fault.hh"
#include "sim/checkpoint.hh"
#include "sim/partition.hh"
#include "sim/trace.hh"
#include "support/metrics.hh"
#include "support/text.hh"
#include "support/thread_pool.hh"
#include "support/tracing.hh"

namespace asim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
defaultLabel(const BatchJob &job)
{
    if (!job.label.empty())
        return job.label;
    if (!job.options.specFile.empty()) {
        return std::filesystem::path(job.options.specFile)
            .filename()
            .string();
    }
    return job.options.engine;
}

} // namespace

// ---------------------------------------------------------------------
// BatchResult
// ---------------------------------------------------------------------

bool
BatchResult::allOk() const
{
    return std::all_of(
        instances.begin(), instances.end(),
        [](const InstanceResult &r) { return !r.faulted; });
}

std::string
BatchResult::summaryTable() const
{
    size_t labelWidth = 8;
    for (const auto &r : instances)
        labelWidth = std::max(labelWidth, r.label.size());

    std::ostringstream os;
    os << std::left << std::setw(5) << "#" << std::setw(labelWidth + 2)
       << "spec" << std::setw(10) << "engine" << std::right
       << std::setw(12) << "cycles" << std::setw(12) << "cycles/s"
       << "  status\n";
    for (const auto &r : instances) {
        os << std::left << std::setw(5) << r.index
           << std::setw(labelWidth + 2) << r.label << std::setw(10)
           << r.engine << std::right << std::setw(12) << r.cyclesRun
           << std::setw(12) << std::fixed << std::setprecision(0)
           << (r.seconds > 0
                   ? static_cast<double>(r.cyclesRun) / r.seconds
                   : 0.0)
           << "  ";
        if (r.faulted)
            os << "FAULT: " << r.fault;
        else if (r.watchpointHit)
            os << "watchpoint after " << r.cyclesRun;
        else
            os << "ok";
        if (r.resumed && !r.faulted)
            os << " (resumed)";
        os << "\n";
    }
    os << instances.size() << " instances, " << threads
       << " threads: " << aggregate.cycles << " cycles in "
       << std::setprecision(3) << aggregate.wallSeconds << "s ("
       << std::setprecision(0) << aggregate.cyclesPerSecond()
       << " cycles/s aggregate";
    if (aggregate.faults)
        os << ", " << aggregate.faults << " faulted";
    os << ")\n";
    return os.str();
}

std::string
BatchResult::json() const
{
    std::ostringstream os;
    os << "{\n  \"threads\": " << threads << ",\n";
    os << "  \"aggregate\": {\"tasks\": " << aggregate.tasks
       << ", \"faults\": " << aggregate.faults
       << ", \"cycles\": " << aggregate.cycles
       << ", \"alu_evals\": " << aggregate.aluEvals
       << ", \"sel_evals\": " << aggregate.selEvals
       << ", \"mem_accesses\": " << aggregate.memAccesses
       << ", \"busy_seconds\": " << aggregate.busySeconds
       << ", \"wall_seconds\": " << aggregate.wallSeconds
       << ", \"cycles_per_second\": " << aggregate.cyclesPerSecond()
       << "},\n";
    os << "  \"instances\": [\n";
    for (size_t i = 0; i < instances.size(); ++i) {
        const InstanceResult &r = instances[i];
        os << "    {\"index\": " << r.index << ", \"label\": \""
           << jsonEscape(r.label) << "\", \"engine\": \""
           << jsonEscape(r.engine)
           << "\", \"cycles_requested\": " << r.cyclesRequested
           << ", \"cycles_run\": " << r.cyclesRun
           << ", \"watchpoint_hit\": "
           << (r.watchpointHit ? "true" : "false")
           << ", \"resumed\": " << (r.resumed ? "true" : "false")
           << ", \"faulted\": " << (r.faulted ? "true" : "false")
           << ", \"fault\": \"" << jsonEscape(r.fault)
           << "\", \"io_text\": \"" << jsonEscape(r.ioText)
           << "\", \"seconds\": " << r.seconds << "}"
           << (i + 1 < instances.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

// ---------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------

BatchRunner::BatchRunner(BatchOptions opts)
    : opts_(opts)
{}

size_t
BatchRunner::addJob(BatchJob job)
{
    if (job.options.ioMode == IoMode::Interactive) {
        throw SimError("batch instances run concurrently; "
                       "interactive I/O is not supported — use null "
                       "or script I/O per instance");
    }
    job.label = defaultLabel(job);
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

size_t
BatchRunner::addBatch(BatchJob job, size_t count)
{
    size_t first = jobs_.size();
    if (count == 0)
        return first;
    // Label before sharing: shareBatchArtifacts folds specFile into
    // the resolved spec, which would erase the file-name label.
    std::string base = defaultLabel(job);
    // Resolve (and for "vm" compile) once up front; the copies below
    // all carry the same shared immutable artifacts. captureTrace
    // attaches its sink only at run(), so it must force trace
    // checks into the shared bytecode here.
    job.options = Simulation::shareBatchArtifacts(job.options,
                                                  job.captureTrace);
    job.label = base;
    for (size_t i = 0; i < count; ++i) {
        BatchJob j = job;
        if (count > 1)
            j.label = base + "#" + std::to_string(i);
        addJob(std::move(j));
    }
    return first;
}

std::string
BatchRunner::instancePath(size_t index) const
{
    return (std::filesystem::path(opts_.checkpointDir) /
            ("inst-" + std::to_string(index) + ".ckpt"))
        .string();
}

size_t
BatchRunner::resumeFromCheckpoints()
{
    if (opts_.checkpointDir.empty()) {
        throw SimError("resumeFromCheckpoints() needs "
                       "BatchOptions::checkpointDir");
    }
    resume_ = true;
    size_t affected = 0;
    for (size_t i = 0; i < jobs_.size(); ++i)
        affected += std::filesystem::exists(instancePath(i));
    return affected;
}

BatchResult
BatchRunner::run()
{
    /** A prior run's checkpoint of one instance. */
    struct Resume
    {
        EngineSnapshot snap;
        CheckpointSections saved; ///< its output/trace sections
    };

    /** What the serial set-up settles for one instance: validated
     *  before any instance runs, so the configuration errors that
     *  need no engine surface first. */
    struct Plan
    {
        std::shared_ptr<const ResolvedSpec> rs;
        bool spliceBaked = false; ///< the resolve carries the splice
        bool skip = false;        ///< finished in a prior run
        uint64_t budget = 0;      ///< absolute target cycle
        std::unique_ptr<Resume> resume; ///< continue a prior run
    };

    /** Everything one instance touches while running — built on the
     *  worker that runs it, none of it shared across instances. */
    struct Work
    {
        std::unique_ptr<Simulation> sim;
        std::ostringstream io;
        std::ostringstream trace;
        std::unique_ptr<StreamTrace> traceSink;
    };

    const bool checkpointing = !opts_.checkpointDir.empty();
    if (opts_.checkpointEvery != 0 && !checkpointing) {
        throw SimError(
            "BatchOptions::checkpointEvery needs checkpointDir");
    }
    if (checkpointing)
        std::filesystem::create_directories(opts_.checkpointDir);

    BatchResult result;
    result.instances.resize(jobs_.size());
    std::vector<Plan> plans(jobs_.size());

    // Persist one instance's progress: one checkpoint whose sections
    // carry the output and captured trace so far and, on completion,
    // the done flag. It is a single atomic write, so a kill leaves
    // the previous generation or this one, never a mix of the two.
    auto persist = [&](size_t i, Work &w, const InstanceResult &r,
                       bool complete) {
        CheckpointSections sections;
        sections.output = w.io.str();
        if (w.traceSink)
            sections.trace = w.trace.str();
        sections.done = complete;
        sections.watchpointHit = r.watchpointHit;
        w.sim->saveCheckpoint(instancePath(i), sections);
    };

    // Validation is serial: any SpecError/SimError here is a batch
    // configuration problem and propagates to the caller.
    for (size_t i = 0; i < jobs_.size(); ++i) {
        const BatchJob &job = jobs_[i];
        Plan &p = plans[i];
        InstanceResult &r = result.instances[i];
        r.index = i;
        r.label = job.label;
        r.engine = job.options.engine;

        // Budget resolution needs only the resolved spec; reuse the
        // shared one when the job carries it. loadSpec bakes a
        // splice fault into the resolve, so the fault text must not
        // reach the Simulation ctor again (it would re-splice).
        p.rs = job.options.resolved;
        if (!p.rs) {
            p.rs = std::make_shared<const ResolvedSpec>(
                Simulation::loadSpec(job.options));
            p.spliceBaked = !job.options.fault.empty() &&
                            !parseFaultSite(job.options.fault).atCycle;
        }
        auto refuse = [&](const std::string &why) {
            return SimError("batch job " + std::to_string(i) + " (" +
                            job.label + "): " + why);
        };
        int64_t budget = static_cast<int64_t>(job.cycles);
        if (budget == 0 && p.rs->cyclesSpecified)
            budget = p.rs->thesisIterations();
        if (budget <= 0) {
            throw refuse("no cycle budget — the spec names no cycle "
                         "count and none was given");
        }
        p.budget = static_cast<uint64_t>(budget);
        r.cyclesRequested = p.budget;
        Simulation::checkOptions(job.options, *p.rs);
        if (!job.watchName.empty() &&
            p.rs->valueSlot(job.watchName) < 0)
            throw refuse(unknownComponent(job.watchName).what());

        // A prior run's checkpoint carries everything the instance
        // had produced: output, captured trace, and the done flag.
        if (resume_ && std::filesystem::exists(instancePath(i))) {
            p.resume = std::make_unique<Resume>();
            Resume &res = *p.resume;
            res.snap = loadCheckpoint(instancePath(i), *p.rs, &res.saved);
            if (!res.saved.output ||
                (job.captureTrace && !res.saved.trace)) {
                throw SimError("checkpoint " + instancePath(i) +
                               " lacks the output or trace section "
                               "of this batch instance");
            }

            // A prior run finished this instance (and its budget
            // covers ours): reload its recorded results instead of
            // re-running.
            if (res.saved.done && (res.saved.watchpointHit ||
                                   res.snap.cycle >= p.budget)) {
                p.skip = true;
                r.resumed = true;
                r.cyclesRun = res.snap.cycle;
                r.watchpointHit = res.saved.watchpointHit;
                r.ioText = *res.saved.output;
                if (job.captureTrace)
                    r.traceText = *res.saved.trace;
                r.stats = res.snap.stats;
                if (opts_.captureState)
                    r.state = std::move(res.snap.state);
                p.resume.reset();
            }
        }
    }

    ThreadPool pool(opts_.threads);
    result.threads = pool.size();

    auto batchStart = std::chrono::steady_clock::now();
    tracing::Span batchSpan("batch.run", "batch");
    if (batchSpan.active())
        batchSpan.setArgs("\"instances\":" +
                          std::to_string(plans.size()) + ",\"threads\":" +
                          std::to_string(pool.size()));
    // Each task builds its instance, runs it and releases it, so at
    // most `threads` simulations exist at once. A construction error
    // (one the serial checks above cannot see, such as a failed
    // engine build) is not an instance fault: no later index starts
    // after it, and parallelFor rethrows the lowest failing index's
    // error to the caller. Indices are claimed in order, so every
    // lower index still runs and the error is the same under any
    // thread count.
    std::atomic<size_t> failedAt{plans.size()};
    pool.parallelFor(0, plans.size(), [&](size_t i) {
        const BatchJob &job = jobs_[i];
        Plan &p = plans[i];
        InstanceResult &r = result.instances[i];
        if (p.skip) {
            metrics::counter("batch.instances_skipped").add();
            return;
        }
        if (i > failedAt.load())
            return;

        tracing::Span span("batch.instance", "batch");
        Work w;
        SimulationOptions opts = job.options;
        opts.resolved = p.rs;
        opts.specFile.clear();
        opts.specText.clear();
        if (p.spliceBaked)
            opts.fault.clear();
        opts.ioOut = &w.io;
        opts.traceStream = nullptr;
        if (job.captureTrace && !opts.config.trace) {
            w.traceSink = std::make_unique<StreamTrace>(w.trace);
            opts.config.trace = w.traceSink.get();
        }
        try {
            w.sim = std::make_unique<Simulation>(opts);
        } catch (...) {
            size_t at = failedAt.load();
            while (i < at && !failedAt.compare_exchange_weak(at, i)) {
            }
            throw;
        }

        // Interrupted (or budget-extended) instance: restore the
        // checkpoint and preload the output (and captured trace) it
        // had produced, so the continuation's channels match an
        // uninterrupted run's.
        if (p.resume) {
            w.sim->restore(p.resume->snap);
            w.io.str(*p.resume->saved.output);
            w.io.seekp(0, std::ios::end);
            w.trace.str(p.resume->saved.trace.value_or(""));
            w.trace.seekp(0, std::ios::end);
            r.resumed = true;
            p.resume.reset();
        }

        auto t0 = std::chrono::steady_clock::now();
        try {
            // Job-level restore (golden-checkpoint fan-out). A
            // runner-checkpoint resume above supersedes it (it
            // carries later progress).
            if (!r.resumed) {
                if (job.restoreSnapshot)
                    w.sim->restore(*job.restoreSnapshot);
                else if (!job.restoreFrom.empty())
                    w.sim->restoreCheckpoint(job.restoreFrom);
            }
            // Run in chunks of checkpointEvery, persisting between
            // them. A watch job stops at its hit; checking it between
            // chunks matches runUntilValue's own check (after each
            // cycle), so chunking never changes where a run stops.
            const bool watch = !job.watchName.empty();
            auto hit = [&] {
                return watch &&
                       w.sim->value(job.watchName) == job.watchValue;
            };
            while (w.sim->cycle() < p.budget) {
                uint64_t chunk = p.budget - w.sim->cycle();
                if (checkpointing && opts_.checkpointEvery != 0)
                    chunk = std::min(chunk, opts_.checkpointEvery);
                if (watch)
                    w.sim->runUntilValue(job.watchName, job.watchValue,
                                         chunk);
                else
                    w.sim->run(chunk);
                if (hit())
                    break;
                if (checkpointing && w.sim->cycle() < p.budget)
                    persist(i, w, r, /*complete=*/false);
            }
            r.watchpointHit = hit();
            r.cyclesRun = w.sim->cycle();
            if (checkpointing)
                persist(i, w, r, /*complete=*/true);
        } catch (const SimError &e) {
            r.faulted = true;
            r.fault = e.what();
            r.cyclesRun = w.sim->cycle();
        }
        r.seconds = secondsSince(t0);
        if (span.active())
            span.setArgs(
                "\"index\":" + std::to_string(i) + ",\"label\":\"" +
                jsonEscape(job.label) + "\",\"engine\":\"" + r.engine +
                "\",\"cycles\":" + std::to_string(r.cyclesRun) +
                ",\"resumed\":" + (r.resumed ? "true" : "false") +
                ",\"faulted\":" + (r.faulted ? "true" : "false"));
        metrics::counter("batch.instances").add();
        if (r.resumed)
            metrics::counter("batch.instances_resumed").add();
        if (r.faulted)
            metrics::counter("batch.instances_faulted").add();
        r.ioText = w.io.str();
        r.traceText = w.trace.str();
        r.stats = w.sim->stats();
        if (opts_.captureState)
            r.state = w.sim->engine().state();
    });
    double wall = secondsSince(batchStart);

    // Deterministic aggregation: fold per-instance records in index
    // order, independent of which thread finished when.
    for (const auto &r : result.instances)
        result.aggregate.addTask(r.stats, r.seconds, r.faulted);
    result.aggregate.wallSeconds = wall;
    return result;
}

size_t
BatchRunner::loadManifest(const std::string &path,
                          const SimulationOptions &defaults,
                          uint64_t defaultCycles)
{
    std::ifstream in(path);
    if (!in)
        throw SimError("cannot read batch manifest " + path);
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();

    auto resolvePath = [&](const std::string &p) {
        std::filesystem::path fp(p);
        return fp.is_absolute() ? fp.string() : (dir / fp).string();
    };

    size_t added = 0;
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string spec;
        if (!(ls >> spec))
            continue; // blank or comment-only line

        auto bad = [&](const std::string &what) {
            return SimError("batch manifest " + path + ":" +
                            std::to_string(lineNo) + ": " + what);
        };

        BatchJob job;
        job.options = defaults;
        job.options.specFile = resolvePath(spec);
        job.cycles = defaultCycles;
        size_t count = 1;

        std::string kv;
        while (ls >> kv) {
            auto eq = kv.find('=');
            if (eq == std::string::npos)
                throw bad("expected key=value, got: " + kv);
            std::string key = kv.substr(0, eq);
            std::string value = kv.substr(eq + 1);
            auto positive = [&](uint64_t max) {
                auto n = parsePositiveCount(value, max);
                if (!n) {
                    throw bad(key + " must be a positive integer" +
                              (max < UINT64_MAX
                                   ? " up to " + std::to_string(max)
                                   : std::string()) +
                              ": " + value);
                }
                return *n;
            };
            if (key == "cycles") {
                job.cycles = positive(UINT64_MAX);
            } else if (key == "io") {
                job.options.ioMode = IoMode::Script;
                job.options.scriptInputs =
                    Simulation::loadScript(resolvePath(value));
            } else if (key == "engine") {
                job.options.engine = value;
            } else if (key == "count") {
                count = positive(kMaxManifestCount);
            } else if (key == "partitions") {
                job.options.partitions =
                    static_cast<unsigned>(positive(kMaxPartitions));
            } else if (key == "fault") {
                // Deliberately unwrapped: a malformed fault throws
                // parseFaultSite's own SpecError, the same text the
                // CLI --inject= path produces (spec-dependent checks
                // — component/cell/mode — follow at construction).
                parseFaultSite(value);
                job.options.fault = value;
            } else if (key == "restore") {
                job.restoreFrom = resolvePath(value);
            } else if (key == "watch") {
                auto watch = parseComponentValue(value);
                if (!watch)
                    throw bad("watch wants component:value, got: " +
                              value);
                job.watchName = watch->component;
                job.watchValue = watch->value;
            } else {
                throw bad("unknown key <" + key + ">");
            }
        }

        if (count > 1)
            addBatch(std::move(job), count);
        else
            addJob(std::move(job));
        added += count;
    }
    return added;
}

} // namespace asim

#include "analysis/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <map>
#include <sstream>

#include "analysis/resolve.hh"
#include "sim/checkpoint.hh"
#include "support/bitops.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rand.hh"
#include "support/text.hh"
#include "support/tracing.hh"

namespace asim {

namespace {

/** Fixed-precision rendering so the JSON report is reproducible. */
std::string
formatRatio(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

void
appendCounts(std::ostringstream &os, const CampaignCounts &c)
{
    os << "\"injections\": " << c.injections
       << ", \"masked\": " << c.masked << ", \"sdc\": " << c.sdc
       << ", \"fault\": " << c.fault << ", \"hang\": " << c.hang
       << ", \"vulnerability\": " << formatRatio(c.vulnerability());
}

} // namespace

// ---------------------------------------------------------------------
// Outcomes and counters
// ---------------------------------------------------------------------

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Sdc:
        return "sdc";
      case FaultOutcome::EngineFault:
        return "fault";
      case FaultOutcome::Hang:
        return "hang";
    }
    return "?";
}

void
CampaignCounts::add(FaultOutcome outcome)
{
    ++injections;
    switch (outcome) {
      case FaultOutcome::Masked:
        ++masked;
        break;
      case FaultOutcome::Sdc:
        ++sdc;
        break;
      case FaultOutcome::EngineFault:
        ++fault;
        break;
      case FaultOutcome::Hang:
        ++hang;
        break;
    }
}

// ---------------------------------------------------------------------
// The state-site universe + the injection primitive
// ---------------------------------------------------------------------

uint64_t
stateSiteCount(const ResolvedSpec &rs)
{
    uint64_t n = 0;
    for (const MemDesc &m : rs.mems)
        n += 1 + static_cast<uint64_t>(m.size);
    return n;
}

FaultSite
stateSiteAt(const ResolvedSpec &rs, uint64_t index)
{
    for (const MemDesc &m : rs.mems) {
        const uint64_t span = 1 + static_cast<uint64_t>(m.size);
        if (index < span) {
            FaultSite site;
            site.component = rs.name(m.name);
            site.cell =
                index == 0 ? -1 : static_cast<int64_t>(index - 1);
            return site;
        }
        index -= span;
    }
    throw SpecError("Error. State site index out of range.");
}

void
applyFaultToSnapshot(EngineSnapshot &snap, const ResolvedSpec &rs,
                     const FaultSite &site)
{
    const FaultInjector &injector =
        FaultInjectorRegistry::global().get(site.mode);
    const int mem = rs.memIndex(site.component);
    if (mem < 0 ||
        static_cast<size_t>(mem) >= snap.state.mems.size()) {
        throw SpecError("Error. Component <" + site.component +
                        "> holds no state; @cycle faults need a "
                        "memory (omit @cycle to splice a stuck "
                        "bit).");
    }
    MemoryState &m = snap.state.mems[static_cast<size_t>(mem)];
    if (site.cell < 0) {
        int32_t &latch = snap.state.latches()[static_cast<size_t>(mem)];
        latch = injector.apply(latch, site.bit);
    } else if (static_cast<size_t>(site.cell) < m.cells.size()) {
        m.cells[static_cast<size_t>(site.cell)] = injector.apply(
            m.cells[static_cast<size_t>(site.cell)], site.bit);
    } else {
        throw SpecError(
            "Error. Fault cell " + std::to_string(site.cell) +
            " out of range for memory <" + site.component +
            "> (size " + std::to_string(m.cells.size()) + ").");
    }
}

// ---------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------

CampaignRunner::CampaignRunner(CampaignOptions opts)
    : opts_(std::move(opts))
{}

CampaignResult
CampaignRunner::run()
{
    const CampaignOptions &o = opts_;
    if (o.runs == 0)
        throw SimError("campaign needs at least one run");
    if (o.base.ioMode == IoMode::Interactive) {
        throw SimError("campaign instances run concurrently; "
                       "interactive I/O is not supported — use null "
                       "or script I/O per instance");
    }
    // Unknown policies throw here, before any simulation runs.
    FaultInjectorRegistry::global().get(o.injector);

    const auto t0 = std::chrono::steady_clock::now();

    // One resolve (and one compiled artifact per engine family)
    // shared by the golden run and every instance. Campaigns never
    // trace.
    SimulationOptions base = o.base;
    base.config.trace = nullptr;
    base.traceStream = nullptr;
    base = Simulation::shareBatchArtifacts(base);
    const std::shared_ptr<const ResolvedSpec> rs = base.resolved;

    uint64_t horizon = o.horizon;
    if (horizon == 0 && rs->cyclesSpecified)
        horizon = static_cast<uint64_t>(rs->thesisIterations());
    if (horizon == 0) {
        throw SimError("campaign needs a horizon — the spec names no "
                       "cycle count and none was given");
    }
    const uint64_t hangBudget =
        o.watchName.empty() ? 0
                            : (o.hangBudget ? o.hangBudget : horizon);
    const uint64_t goldenCycle =
        o.splice ? 0
                 : (o.goldenCycle ? o.goldenCycle : horizon / 2);
    if (goldenCycle >= horizon) {
        throw SimError("campaign golden cycle " +
                       std::to_string(goldenCycle) +
                       " must precede the horizon " +
                       std::to_string(horizon));
    }
    const uint64_t nStateSites = stateSiteCount(*rs);
    if (!o.splice && nStateSites == 0) {
        throw SimError("campaign has no state to perturb — the spec "
                       "has no memories (use a splice campaign)");
    }

    // ----- Golden run: checkpoint at the golden cycle, reference
    // channels at the horizon (or the completion watchpoint).
    std::string dir = o.workDir;
    bool ownDir = false;
    if (!o.splice && dir.empty()) {
        char tmpl[] = "/tmp/asim-campaign-XXXXXX";
        if (!mkdtemp(tmpl))
            throw SimError("mkdtemp failed");
        dir = tmpl;
        ownDir = true;
    }
    if (!dir.empty())
        std::filesystem::create_directories(dir);

    tracing::Span goldenSpan("campaign.golden", "campaign");
    std::ostringstream goldenIo;
    SimulationOptions goldenOpts = base;
    goldenOpts.ioOut = &goldenIo;
    Simulation golden(goldenOpts);
    golden.run(goldenCycle);
    const std::string goldenIoPrefix = goldenIo.str();

    std::string goldenPath;
    std::shared_ptr<const EngineSnapshot> goldenSnap;
    if (!o.splice) {
        goldenPath =
            (std::filesystem::path(dir) / "golden.ckpt").string();
        golden.saveCheckpoint(goldenPath);
    }

    if (!o.watchName.empty()) {
        if (goldenCycle > 0 &&
            golden.value(o.watchName) == o.watchValue) {
            throw SimError(
                "campaign golden cycle " +
                std::to_string(goldenCycle) +
                " lies after the completion watchpoint <" +
                o.watchName + ":" + std::to_string(o.watchValue) +
                "> — checkpoint earlier");
        }
        golden.runUntilValue(o.watchName, o.watchValue,
                             horizon - goldenCycle);
        if (golden.value(o.watchName) != o.watchValue) {
            throw SimError("campaign golden run never reached the "
                           "completion watchpoint <" + o.watchName +
                           ":" + std::to_string(o.watchValue) +
                           "> within the horizon " +
                           std::to_string(horizon));
        }
    } else {
        golden.run(horizon - goldenCycle);
    }
    const uint64_t goldenCycles = golden.cycle();
    const MachineState goldenState = golden.engine().state();
    const std::string goldenIoFull = goldenIo.str();
    const std::string goldenIoTail =
        goldenIoFull.substr(goldenIoPrefix.size());

    if (!o.splice) {
        // Decode once through the real load path (validating the
        // file we just wrote); instances share the snapshot.
        goldenSnap = std::make_shared<const EngineSnapshot>(
            loadCheckpoint(goldenPath, *rs));
    }
    goldenSpan.finish();

    // ----- Fan-out: sample one fault per run off the (seed, index)
    // stream — the draw order (site, bit, cycle) is part of the
    // report's stability contract.
    BatchOptions batchOpts;
    batchOpts.threads = o.threads;
    batchOpts.captureState = true;
    BatchRunner runner(batchOpts);

    // Splices sample component names in definition order.
    std::vector<std::string> spliceNames;
    if (o.splice) {
        const Spec ast = rs->ast();
        for (const Component &c : ast.comps)
            spliceNames.emplace_back(ast.name(c.name));
    }
    std::vector<FaultSite> sites;
    sites.reserve(o.runs);
    for (uint64_t i = 0; i < o.runs; ++i) {
        SplitMix64 rng = SplitMix64::forIndex(o.seed, i);
        FaultSite site;
        if (o.splice) {
            site.component =
                spliceNames[rng.below(spliceNames.size())];
            site.bit = static_cast<int>(rng.below(kMaxBits));
        } else {
            site = stateSiteAt(*rs, rng.below(nStateSites));
            site.bit = static_cast<int>(rng.below(kMaxBits));
            site.atCycle = true;
            site.cycle =
                goldenCycle + rng.below(horizon - goldenCycle);
        }
        site.mode = o.injector;
        sites.push_back(site);

        BatchJob job;
        job.options = base;
        job.options.fault = formatFaultSite(sites.back());
        job.cycles = horizon + hangBudget;
        job.watchName = o.watchName;
        job.watchValue = o.watchValue;
        job.label = job.options.fault;
        if (o.splice) {
            // The spliced spec differs from the shared resolve:
            // drop the shared compiled artifacts (the instance
            // compiles its own) and run from cycle zero. A shared
            // symbolic tree stays: it is the healthy tree each
            // instance splices.
            job.options.program.reset();
            job.options.nativeBuild.reset();
        } else {
            job.restoreSnapshot = goldenSnap;
        }
        runner.addJob(std::move(job));
    }
    tracing::Span fanoutSpan("campaign.fanout", "campaign");
    if (fanoutSpan.active())
        fanoutSpan.setArgs("\"runs\":" + std::to_string(o.runs) +
                           ",\"threads\":" + std::to_string(o.threads));
    BatchResult batch = runner.run();
    fanoutSpan.finish();

    // ----- Classify against the golden reference (DESIGN.md §10):
    // EngineFault > Hang > Masked-vs-Sdc. The state diff covers the
    // memories and their output latches (architectural state);
    // combinational outputs are derived from them every cycle.
    // Transient instances restored at the golden cycle produced only
    // the post-checkpoint output, so they diff against the golden
    // tail.
    CampaignResult result;
    result.runs = o.runs;
    result.seed = o.seed;
    result.injector = o.injector;
    result.engine = base.engine;
    result.splice = o.splice;
    result.goldenCycle = goldenCycle;
    result.horizon = horizon;
    result.hangBudget = hangBudget;
    result.watchName = o.watchName;
    result.watchValue = o.watchValue;
    result.goldenCycles = goldenCycles;

    const std::string &refIo =
        o.splice ? goldenIoFull : goldenIoTail;
    std::map<std::string, CampaignCounts> perComponent;
    result.records.reserve(o.runs);
    tracing::Span classifySpan("campaign.classify", "campaign");
    const bool timed = metrics::timingEnabled();
    for (uint64_t i = 0; i < o.runs; ++i) {
        const InstanceResult &r = batch.instances[i];
        const FaultSite &site = sites[i];
        FaultOutcome outcome;
        if (r.faulted) {
            outcome = FaultOutcome::EngineFault;
        } else if (!o.watchName.empty() && !r.watchpointHit) {
            outcome = FaultOutcome::Hang;
        } else if (r.cyclesRun == goldenCycles &&
                   r.ioText == refIo &&
                   r.state.mems == goldenState.mems &&
                   std::ranges::equal(r.state.latches(),
                                      goldenState.latches())) {
            outcome = FaultOutcome::Masked;
        } else {
            outcome = FaultOutcome::Sdc;
        }
        result.total.add(outcome);
        perComponent[site.component].add(outcome);
        if (timed) {
            // Per-classification run-time histograms: hang-budget
            // burn vs fast masking is where campaign wall time goes.
            // Metrics only — table()/json() never read these, so the
            // report bytes stay identical with observability on.
            const std::string name = faultOutcomeName(outcome);
            metrics::counter("campaign.outcome." + name).add();
            metrics::histogram("campaign.run_ns." + name,
                               metrics::Histogram::exponentialBounds(
                                   1000, 4.0, 16))
                .record(static_cast<uint64_t>(r.seconds * 1e9));
        }

        CampaignRecord rec;
        rec.site = formatFaultSite(site);
        rec.component = site.component;
        rec.outcome = outcome;
        rec.cyclesRun = r.cyclesRun;
        rec.fault = r.fault;
        result.records.push_back(std::move(rec));
    }
    result.components.assign(perComponent.begin(),
                             perComponent.end());
    result.threads = batch.threads;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    if (ownDir) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec); // best effort
    }
    return result;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

std::string
CampaignResult::table() const
{
    size_t nameWidth = 9;
    for (const auto &[name, counts] : components)
        nameWidth = std::max(nameWidth, name.size());

    std::ostringstream os;
    os << "fault-injection campaign: " << runs << " injections, seed "
       << seed << ", injector " << injector << ", engine " << engine
       << (splice ? ", spec splice" : "") << "\n";
    os << "golden checkpoint @ cycle " << goldenCycle << ", horizon "
       << horizon;
    if (!watchName.empty()) {
        os << ", watch " << watchName << ":" << watchValue
           << " (golden hit @ " << goldenCycles << ", hang budget +"
           << hangBudget << ")";
    }
    os << "\n";

    auto row = [&](const std::string &name,
                   const CampaignCounts &c) {
        os << std::left << std::setw(static_cast<int>(nameWidth + 2))
           << name << std::right << std::setw(11) << c.injections
           << std::setw(9) << c.masked << std::setw(9) << c.sdc
           << std::setw(9) << c.fault << std::setw(9) << c.hang
           << std::setw(12) << std::fixed << std::setprecision(1)
           << (100.0 * c.vulnerability()) << "%\n";
    };
    os << std::left << std::setw(static_cast<int>(nameWidth + 2))
       << "component" << std::right << std::setw(11) << "injections"
       << std::setw(9) << "masked" << std::setw(9) << "sdc"
       << std::setw(9) << "fault" << std::setw(9) << "hang"
       << std::setw(12) << "vulnerable" << "\n";
    for (const auto &[name, counts] : components)
        row(name, counts);
    row("total", total);
    os << runs << " injections in " << std::setprecision(3)
       << seconds << "s ("
       << std::setprecision(0)
       << (seconds > 0 ? static_cast<double>(runs) / seconds : 0.0)
       << "/s, " << threads << " threads)\n";
    return os.str();
}

std::string
CampaignResult::json() const
{
    std::ostringstream os;
    os << "{\n  \"campaign\": {\"runs\": " << runs
       << ", \"seed\": " << seed << ", \"injector\": \""
       << jsonEscape(injector) << "\", \"engine\": \""
       << jsonEscape(engine) << "\", \"splice\": "
       << (splice ? "true" : "false")
       << ", \"golden_cycle\": " << goldenCycle
       << ", \"horizon\": " << horizon
       << ", \"hang_budget\": " << hangBudget << ", \"watch\": \""
       << jsonEscape(watchName) << "\", \"watch_value\": "
       << watchValue << ", \"golden_cycles\": " << goldenCycles
       << "},\n";
    os << "  \"total\": {";
    appendCounts(os, total);
    os << "},\n";
    os << "  \"components\": [\n";
    for (size_t i = 0; i < components.size(); ++i) {
        os << "    {\"component\": \""
           << jsonEscape(components[i].first) << "\", ";
        appendCounts(os, components[i].second);
        os << "}" << (i + 1 < components.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        const CampaignRecord &r = records[i];
        os << "    {\"site\": \"" << jsonEscape(r.site)
           << "\", \"component\": \"" << jsonEscape(r.component)
           << "\", \"outcome\": \"" << faultOutcomeName(r.outcome)
           << "\", \"cycles\": " << r.cyclesRun << ", \"fault\": \""
           << jsonEscape(r.fault) << "\"}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace asim

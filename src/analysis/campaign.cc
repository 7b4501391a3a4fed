#include "analysis/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <unordered_map>

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

namespace {

/** How the golden run settled one transient injection: decided
 *  outright, or the flipped snapshot its instance starts from. */
struct Settlement
{
    bool decided = false;
    FaultOutcome outcome = FaultOutcome::Masked;
    std::shared_ptr<const EngineSnapshot> start;
    size_t ioSkip = 0; ///< golden output bytes before `start`
    size_t job = 0;    ///< batch index (undecided injections)
};

/** One campaign. With `decide`, the golden run settles every
 *  transient injection it can (DESIGN.md §10) and simulates the rest
 *  from their first read; without it, every injection is simulated
 *  from the golden checkpoint (or, spliced, from cycle zero). */
CampaignResult
runCampaign(const CampaignOptions &o, bool decide)
{
    if (o.runs == 0)
        throw SimError("campaign needs at least one run");
    if (o.base.ioMode == IoMode::Interactive) {
        throw SimError("campaign instances run concurrently; "
                       "interactive I/O is not supported — use null "
                       "or script I/O per instance");
    }
    // Unknown policies throw here, before any simulation runs.
    const FaultInjector &injector =
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
    const bool watch = !o.watchName.empty();
    const uint64_t hangBudget =
        !watch ? 0 : (o.hangBudget ? o.hangBudget : horizon);
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
    decide = decide && !o.splice;

    // ----- Golden run: checkpoint at the golden cycle (the
    // brute-force fan-out restores it), reference channels at the
    // horizon (or the completion watchpoint).
    const bool checkpoint = !o.splice && !decide;
    std::string dir = o.workDir;
    bool ownDir = false;
    if (checkpoint && dir.empty()) {
        char tmpl[] = "/tmp/asim-campaign-XXXXXX";
        if (!mkdtemp(tmpl))
            throw SimError("mkdtemp failed");
        dir = tmpl;
        ownDir = true;
    }
    if (checkpoint)
        std::filesystem::create_directories(dir);

    tracing::Span goldenSpan("campaign.golden", "campaign");
    std::ostringstream goldenIo;
    SimulationOptions goldenOpts = base;
    goldenOpts.ioOut = &goldenIo;
    Simulation golden(goldenOpts);
    golden.run(goldenCycle);
    const size_t goldenIoPrefix = goldenIo.view().size();

    std::string goldenPath;
    if (checkpoint) {
        goldenPath =
            (std::filesystem::path(dir) / "golden.ckpt").string();
        golden.saveCheckpoint(goldenPath);
    }
    if (watch && goldenCycle > 0 &&
        golden.value(o.watchName) == o.watchValue) {
        throw SimError("campaign golden cycle " +
                       std::to_string(goldenCycle) +
                       " lies after the completion watchpoint <" +
                       o.watchName + ":" +
                       std::to_string(o.watchValue) +
                       "> — checkpoint earlier");
    }

    // ----- Sample one fault per run off the (seed, index) stream —
    // the draw order (site, bit, cycle) is part of the report's
    // stability contract. Splices sample component names in
    // definition order.
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
        sites.push_back(std::move(site));
    }

    // ----- The golden run's second half settles the injections
    // (DESIGN.md §10). Each one arms at its fault cycle; a cell site
    // then waits, keyed by (memory, cell), for the golden run's first
    // access to that cell. The run steps one cycle at a time while
    // any site waits and runs straight to the next fault cycle
    // otherwise.
    std::vector<Settlement> settled(o.runs);
    std::vector<size_t> order;
    if (decide) {
        order.resize(o.runs);
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::ranges::stable_sort(order, {}, [&](size_t i) {
            return sites[i].cycle;
        });
    }
    std::vector<std::unordered_map<int64_t, std::vector<size_t>>>
        waiting(rs->mems.size()); // per memory: cell -> its sites
    size_t nWaiting = 0;
    std::vector<size_t> latchNow; // latch sites of this cycle
    std::unique_ptr<Simulation> probe; // one-cycle latch runs
    std::ostringstream probeIo;        // and their discarded output
    EngineSnapshot pre; // golden state before this cycle
    auto simulateFrom = [&](size_t i, const EngineSnapshot &at,
                            size_t ioAt) {
        auto start = std::make_shared<EngineSnapshot>(at);
        applyFaultToSnapshot(*start, *rs, sites[i]);
        settled[i].start = std::move(start);
        settled[i].ioSkip = ioAt - goldenIoPrefix;
    };
    auto decideAs = [&](size_t i, FaultOutcome outcome) {
        settled[i].decided = true;
        settled[i].outcome = outcome;
    };
    bool hit = false;
    size_t next = 0;
    for (;;) {
        const uint64_t t = golden.cycle();
        if (hit || t == horizon)
            break;
        for (; next < order.size() && sites[order[next]].cycle <= t;
             ++next) {
            const size_t i = order[next];
            const FaultSite &site = sites[i];
            const size_t m =
                static_cast<size_t>(rs->memIndex(site.component));
            if (site.cell < 0) {
                latchNow.push_back(i);
                continue;
            }
            const int32_t v = golden.engine()
                                  .state()
                                  .mems[m]
                                  .cells[static_cast<size_t>(site.cell)];
            if (injector.apply(v, site.bit) == v) {
                decideAs(i, FaultOutcome::Masked);
            } else {
                waiting[m][site.cell].push_back(i);
                ++nWaiting;
            }
        }
        if (nWaiting == 0 && latchNow.empty()) {
            const uint64_t until = next < order.size()
                                       ? sites[order[next]].cycle
                                       : horizon;
            if (watch) {
                golden.runUntilValue(o.watchName, o.watchValue,
                                     until - t);
                hit = golden.value(o.watchName) == o.watchValue;
            } else {
                golden.run(until - t);
            }
            continue;
        }

        golden.engine().snapshotInto(pre);
        const size_t ioAt = goldenIo.view().size();
        golden.step();
        if (watch)
            hit = golden.value(o.watchName) == o.watchValue;

        // A latch upset lives one cycle: every memory operation
        // overwrites the latch. Masked when that cycle leaves the
        // memories and their latches as the golden run's and hits
        // the watchpoint exactly when the golden run does: the
        // combinational values are recomputed next cycle, and the
        // address and operation latches record every input and
        // output the cycle made. Otherwise the instance runs from
        // the fault cycle.
        for (const size_t i : latchNow) {
            simulateFrom(i, pre, ioAt);
            if (!probe) {
                SimulationOptions po = base;
                po.ioOut = &probeIo;
                probe = std::make_unique<Simulation>(po);
            }
            try {
                probe->restore(*settled[i].start);
                probe->step();
            } catch (const SimError &) {
                continue;
            }
            const MachineState &f = probe->engine().state();
            const MachineState &g = golden.engine().state();
            if (f.mems == g.mems &&
                std::ranges::equal(f.latches(), g.latches()) &&
                (!watch ||
                 (probe->value(o.watchName) == o.watchValue) == hit)) {
                decideAs(i, FaultOutcome::Masked);
                settled[i].start.reset();
            }
        }
        latchNow.clear();

        // This cycle's cell accesses: a write first masks the upset,
        // a read first starts its instance here.
        const MachineState &st = golden.engine().state();
        for (size_t m = 0; m < st.mems.size(); ++m) {
            const MemoryState &ms = st.mems[m];
            const int32_t op = land(ms.opn, 3);
            if (waiting[m].empty() ||
                (op != mem_op::kRead && op != mem_op::kWrite))
                continue;
            const auto it = waiting[m].find(ms.adr);
            if (it == waiting[m].end())
                continue;
            for (const size_t i : it->second) {
                if (op == mem_op::kWrite)
                    decideAs(i, FaultOutcome::Masked);
                else
                    simulateFrom(i, pre, ioAt);
            }
            nWaiting -= it->second.size();
            waiting[m].erase(it);
        }
    }
    if (watch && !hit) {
        throw SimError("campaign golden run never reached the "
                       "completion watchpoint <" + o.watchName +
                       ":" + std::to_string(o.watchValue) +
                       "> within the horizon " +
                       std::to_string(horizon));
    }
    // Never touched again: the upset survives to the end (SDC). Past
    // a watchpoint campaign's golden stop it was never applied.
    for (const auto &cells : waiting)
        for (const auto &[cell, ids] : cells)
            for (const size_t i : ids)
                decideAs(i, FaultOutcome::Sdc);
    for (; next < order.size(); ++next)
        decideAs(order[next], FaultOutcome::Masked);

    const uint64_t goldenCycles = golden.cycle();
    const MachineState goldenState = golden.engine().state();
    const std::string goldenIoFull = goldenIo.str();
    const std::string_view goldenIoTail =
        std::string_view(goldenIoFull).substr(goldenIoPrefix);

    std::shared_ptr<const EngineSnapshot> goldenSnap;
    if (checkpoint) {
        // Decode once through the real load path (validating the
        // file we just wrote); instances share the snapshot.
        goldenSnap = std::make_shared<const EngineSnapshot>(
            loadCheckpoint(goldenPath, *rs));
    }
    goldenSpan.finish();

    // ----- Fan-out: one instance per undecided injection.
    BatchOptions batchOpts;
    batchOpts.threads = o.threads;
    batchOpts.captureState = true;
    BatchRunner runner(batchOpts);
    for (uint64_t i = 0; i < o.runs; ++i) {
        Settlement &st = settled[i];
        if (st.decided)
            continue;
        BatchJob job;
        job.options = base;
        job.label = formatFaultSite(sites[i]);
        job.cycles = horizon + hangBudget;
        job.watchName = o.watchName;
        job.watchValue = o.watchValue;
        if (st.start) {
            job.restoreSnapshot = std::move(st.start);
        } else if (o.splice) {
            // The spliced spec differs from the shared resolve:
            // drop the shared compiled artifacts (the instance
            // compiles its own) and run from cycle zero. A shared
            // symbolic tree stays: it is the healthy tree each
            // instance splices.
            job.options.fault = job.label;
            job.options.program.reset();
            job.options.nativeBuild.reset();
        } else {
            job.options.fault = job.label;
            job.restoreSnapshot = goldenSnap;
        }
        st.job = runner.addJob(std::move(job));
    }
    tracing::Span fanoutSpan("campaign.fanout", "campaign");
    if (fanoutSpan.active())
        fanoutSpan.setArgs("\"runs\":" + std::to_string(o.runs) +
                           ",\"instances\":" +
                           std::to_string(runner.jobCount()) +
                           ",\"threads\":" + std::to_string(o.threads));
    BatchResult batch = runner.run();
    fanoutSpan.finish();

    // ----- Classify against the golden reference (DESIGN.md §10):
    // EngineFault > Hang > Masked-vs-Sdc. The state diff covers the
    // memories and their output latches (architectural state);
    // combinational outputs are derived from them every cycle.
    // Transient instances produced only the output after their start,
    // so they diff against the golden output from there.
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

    const std::string_view refIo =
        o.splice ? std::string_view(goldenIoFull) : goldenIoTail;
    std::map<std::string, CampaignCounts> perComponent;
    result.records.reserve(o.runs);
    tracing::Span classifySpan("campaign.classify", "campaign");
    const bool timed = metrics::timingEnabled();
    for (uint64_t i = 0; i < o.runs; ++i) {
        const Settlement &st = settled[i];
        const FaultSite &site = sites[i];
        CampaignRecord rec;
        rec.site = formatFaultSite(site);
        rec.component = site.component;
        rec.cyclesRun = goldenCycles;
        if (st.decided) {
            rec.outcome = st.outcome;
        } else {
            const InstanceResult &r = batch.instances[st.job];
            if (r.faulted) {
                rec.outcome = FaultOutcome::EngineFault;
            } else if (watch && !r.watchpointHit) {
                rec.outcome = FaultOutcome::Hang;
            } else if (r.cyclesRun == goldenCycles &&
                       r.ioText == refIo.substr(st.ioSkip) &&
                       r.state.mems == goldenState.mems &&
                       std::ranges::equal(r.state.latches(),
                                          goldenState.latches())) {
                rec.outcome = FaultOutcome::Masked;
            } else {
                rec.outcome = FaultOutcome::Sdc;
            }
            rec.cyclesRun = r.cyclesRun;
            rec.fault = r.fault;
            if (timed) {
                // Per-classification run-time histograms of the
                // simulated instances: hang-budget burn vs fast
                // masking is where campaign wall time goes. Metrics
                // only — table()/json() never read these, so the
                // report bytes stay identical with observability on.
                metrics::histogram(
                    std::string("campaign.run_ns.") +
                        faultOutcomeName(rec.outcome),
                    metrics::Histogram::exponentialBounds(1000, 4.0,
                                                          16))
                    .record(static_cast<uint64_t>(r.seconds * 1e9));
            }
        }
        if (timed) {
            metrics::counter(std::string("campaign.outcome.") +
                             faultOutcomeName(rec.outcome))
                .add();
        }
        result.total.add(rec.outcome);
        perComponent[site.component].add(rec.outcome);
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

} // namespace

CampaignRunner::CampaignRunner(CampaignOptions opts)
    : opts_(std::move(opts))
{}

CampaignResult
CampaignRunner::run()
{
    return runCampaign(opts_, /*decide=*/true);
}

CampaignResult
runBruteForceCampaign(const CampaignOptions &opts)
{
    return runCampaign(opts, /*decide=*/false);
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

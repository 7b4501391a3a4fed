#include "analysis/campaign.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

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

int32_t
injectFault(MachineState &state, const ResolvedSpec &rs,
            const FaultSite &site)
{
    const FaultPolicy &policy = faultPolicy(site.mode);
    const int mem = rs.memIndex(site.component);
    if (mem < 0 || static_cast<size_t>(mem) >= state.mems.size()) {
        throw SpecError("Error. Component <" + site.component +
                        "> holds no state; @cycle faults need a "
                        "memory (omit @cycle to splice a stuck "
                        "bit).");
    }
    const size_t m = static_cast<size_t>(mem);
    std::vector<int32_t> &cells = state.mems[m].cells;
    if (site.cell >= 0 && static_cast<size_t>(site.cell) >= cells.size()) {
        throw SpecError(
            "Error. Fault cell " + std::to_string(site.cell) +
            " out of range for memory <" + site.component +
            "> (size " + std::to_string(cells.size()) + ").");
    }
    int32_t &word = site.cell < 0 ? state.latches()[m]
                                  : cells[static_cast<size_t>(site.cell)];
    return std::exchange(word, policy.apply(word, site.bit));
}

// ---------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------

namespace {

/** Golden cycles between two comparisons of the active instances with
 *  the golden run: shorter parks an instance sooner after it rejoins
 *  the golden run, but compares, parks and wakes more often. Sieve 41,
 *  seed 1, 512 toggles (vm, one thread): 16, 32 and 64 simulated 89k,
 *  96k and 109k instance cycles in 19.5, 19.4 and 21.4 ms; on a set0
 *  campaign (sieve 49, seed 9) 16 ran 5% slower than 32 and 64. */
constexpr uint64_t kSyncCycles = 32;

/** Run `sim` up to `n` cycles, stopping at the completion watchpoint
 *  when the campaign has one; true when it reads the watched value. */
bool
advance(Simulation &sim, const CampaignOptions &o, uint64_t n)
{
    if (o.watchName.empty())
        sim.run(n);
    else
        sim.runUntilValue(o.watchName, o.watchValue, n);
    return !o.watchName.empty() && sim.value(o.watchName) == o.watchValue;
}

/** A memory cell a parked injection differs in, and its value there. */
struct CellDiff
{
    size_t mem, cell;
    int32_t value = 0;
};

/** One transient injection. On no slot and not decided, it is parked:
 *  its state is the golden run's but for the cells in `diff`. */
struct Injection
{
    std::vector<CellDiff> diff;
    /** Set once its output differed from the golden run's; its output
     *  up to golden output byte `outTo` is then `out`. */
    bool outputDiffers = false;
    std::string out;
    size_t outTo = 0;
    size_t widest = 0;         ///< diff's size when it parked
    bool parkedBefore = false; ///< parked at an earlier sync
    bool decided = false;      ///< `record` holds its outcome
    CampaignRecord record;
};

/** A reusable simulation for one active injection. */
struct Slot
{
    std::ostringstream io;
    std::unique_ptr<Simulation> sim;
    size_t injection = 0;
    size_t ioFrom = 0; ///< golden output bytes where it woke
};

/** Work counters, published as `campaign.<name>`. */
enum Work { kInstanceCycles, kWakes, kParks, kReparks, kWideRejoins,
            kOutputRejoins, kInputHeld, kStopSyncs, kWorkCount };
constexpr const char *kWorkNames[kWorkCount] = {
    "instance_cycles", "wakes",          "parks",      "reparks",
    "wide_rejoins",    "output_rejoins", "input_held", "stop_syncs"};

/** The golden run's second half in lockstep with the transient
 *  injections, each parked, active on a slot or decided (DESIGN.md §10). */
struct Lockstep
{
    const CampaignOptions &o;
    const ResolvedSpec &rs;
    const SimulationOptions &base;
    const std::vector<FaultSite> &sites;
    Simulation &golden;
    const std::ostringstream &goldenIo;
    uint64_t horizon;
    uint64_t budget;  ///< a watch campaign's horizon + hang budget

    std::vector<Injection> inj = std::vector<Injection>(sites.size());
    /** Per memory: cell -> the parked injections that differ there. */
    using CellIndex = std::unordered_map<size_t, std::vector<size_t>>;
    std::vector<CellIndex> waiting = std::vector<CellIndex>(rs.mems.size());
    std::vector<std::unique_ptr<Slot>> slots{}; ///< first nActive active
    size_t nActive = 0;
    EngineSnapshot pre = golden.engine().snapshot(); ///< before this cycle
    std::array<uint64_t, kWorkCount> work{};

    /** Make parked injection `i` active on a slot restored from the
     *  golden state before this cycle, its diff written in. */
    Slot &
    wake(size_t i, size_t ioAt)
    {
        if (nActive == slots.size()) {
            slots.push_back(std::make_unique<Slot>());
            SimulationOptions so = base;
            so.ioOut = &slots.back()->io;
            slots.back()->sim = std::make_unique<Simulation>(so);
        }
        Slot &s = *slots[nActive++];
        s.injection = i;
        s.ioFrom = ioAt;
        s.io.str({});
        s.sim->restore(pre);
        Injection &in = inj[i];
        for (const CellDiff &d : in.diff) {
            s.sim->engine().state().mems[d.mem].cells[d.cell] = d.value;
            CellIndex &w = waiting[d.mem];
            const auto it = w.find(d.cell);
            if (it != w.end() &&
                (std::erase(it->second, i), it->second.empty()))
                w.erase(it);
        }
        in.diff.clear();
        ++work[kWakes];
        return s;
    }

    /** After a golden cycle: a read of a cell an injection differs in
     *  wakes it; a write makes the cell the golden run's again. Reads
     *  first: one cycle may read one of its cells and write another. */
    void
    accesses(size_t ioAt)
    {
        const MachineState &st = golden.engine().state();
        for (const int32_t op : {mem_op::kRead, mem_op::kWrite}) {
            for (size_t m = 0; m < st.mems.size(); ++m) {
                const size_t cell = static_cast<size_t>(st.mems[m].adr);
                if (land(st.mems[m].opn, 3) != op || waiting[m].empty())
                    continue;
                const auto ids = waiting[m].extract(cell);
                if (ids.empty())
                    continue;
                for (const size_t i : ids.mapped()) {
                    Injection &in = inj[i];
                    if (op == mem_op::kRead) {
                        wake(i, ioAt);
                        continue;
                    }
                    std::erase_if(in.diff, [&](const CellDiff &d) {
                        return d.mem == m && d.cell == cell;
                    });
                    if (in.diff.empty()) {
                        work[kWideRejoins] += in.widest > 1;
                        work[kOutputRejoins] += in.outputDiffers;
                    }
                }
            }
        }
    }

    /** Bring slot `s` up to the golden cycle; true when it is decided,
     *  or parks (DESIGN.md §10). At the golden stop (`last`) every slot
     *  is classified as its brute-force instance would be. */
    bool
    settle(Slot &s, bool last)
    {
        Injection &in = inj[s.injection];
        Simulation &sim = *s.sim;
        const uint64_t t = golden.cycle(), from = sim.cycle();
        bool stopped = false, ranOn = false; // at its own watch hit
        std::string fault;
        try {
            stopped = advance(sim, o, t - from);
            if ((ranOn = last && !o.watchName.empty() && !stopped))
                stopped = advance(sim, o, budget - t);
        } catch (const SimError &e) {
            fault = e.what();
        }
        work[kInstanceCycles] += sim.cycle() - from;
        const MachineState &f = sim.engine().state();
        const MachineState &g = golden.engine().state();
        bool same = std::ranges::equal(f.latches(), g.latches());
        for (size_t m = 0; same && m < g.mems.size(); ++m)
            same = f.mems[m].adr == g.mems[m].adr &&
                   f.mems[m].opn == g.mems[m].opn;
        if (!fault.empty() || ranOn || (last && !same) ||
            (stopped && (!last || sim.cycle() < t))) {
            in.decided = true;
            in.record.outcome = !fault.empty() ? FaultOutcome::EngineFault
                                : ranOn && !stopped ? FaultOutcome::Hang
                                                    : FaultOutcome::Sdc;
            in.record.cyclesRun = sim.cycle();
            in.record.fault = std::move(fault);
            return true;
        }
        if (!same || (!last && sim.engine().inputsConsumed() !=
                                   golden.engine().inputsConsumed())) {
            work[kInputHeld] += same;
            return false;
        }
        const std::string_view gio = goldenIo.view();
        if (in.outputDiffers || s.io.view() != gio.substr(s.ioFrom)) {
            in.out.append(gio.substr(in.outTo, s.ioFrom - in.outTo))
                .append(s.io.view());
            in.outTo = gio.size();
            in.outputDiffers = true;
        }
        for (size_t m = 0; m < g.mems.size(); ++m)
            for (size_t c = 0; c < g.mems[m].cells.size(); ++c)
                if (f.mems[m].cells[c] != g.mems[m].cells[c]) {
                    in.diff.push_back({m, c, f.mems[m].cells[c]});
                    waiting[m][c].push_back(s.injection);
                }
        ++work[kParks];
        work[kReparks] += std::exchange(in.parkedBefore, true);
        work[kOutputRejoins] += in.diff.empty() && in.outputDiffers;
        in.widest = in.diff.size();
        return true;
    }

    void
    sync(bool last)
    {
        for (size_t k = 0; k < nActive;)
            if (settle(*slots[k], last))
                std::swap(slots[k], slots[--nActive]);
            else
                ++k;
    }

    /** Run the golden run to its stop; true on a watch hit. It steps
     *  one cycle at a time only while a parked injection differs in a
     *  cell, else runs to the next fault cycle or (slots active) sync. */
    bool
    run()
    {
        std::vector<size_t> order(sites.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::ranges::stable_sort(
            order, {}, [&](size_t i) { return sites[i].cycle; });
        bool hit = false;
        for (size_t next = 0; !hit && golden.cycle() < horizon;) {
            const uint64_t t = golden.cycle();
            for (; next < order.size() && sites[order[next]].cycle <= t;
                 ++next) {
                const size_t i = order[next];
                const FaultSite &site = sites[i];
                // Flip the golden run's word, take the faulty value
                // and put the healthy one back.
                MachineState &st = golden.engine().state();
                const size_t m =
                    static_cast<size_t>(rs.memIndex(site.component));
                const size_t c = static_cast<size_t>(site.cell);
                int32_t &word =
                    site.cell < 0 ? st.latches()[m] : st.mems[m].cells[c];
                const int32_t v = injectFault(st, rs, site);
                const int32_t flipped = std::exchange(word, v);
                if (flipped == v)
                    continue;
                if (site.cell < 0) {
                    golden.engine().snapshotInto(pre);
                    wake(i, goldenIo.view().size())
                        .sim->engine()
                        .state()
                        .latches()[m] = flipped;
                    continue;
                }
                inj[i].diff.push_back({m, c, flipped});
                waiting[m][c].push_back(i);
            }
            if (std::ranges::all_of(
                    waiting, [](const CellIndex &w) { return w.empty(); })) {
                uint64_t until = next < order.size()
                                     ? sites[order[next]].cycle
                                     : horizon;
                if (nActive > 0)
                    until = std::min(
                        until, (t / kSyncCycles + 1) * kSyncCycles);
                hit = advance(golden, o, until - t);
            } else {
                if (pre.cycle != t)
                    golden.engine().snapshotInto(pre);
                const size_t ioAt = goldenIo.view().size();
                hit = advance(golden, o, 1);
                accesses(ioAt);
                // A cycle changes no cell but what a write writes; `pre`
                // keeps stale stats (nothing reads an instance's).
                const MachineState &g = golden.engine().state();
                pre.state.vars = g.vars;
                for (size_t m = 0; m < g.mems.size(); ++m) {
                    MemoryState &p = pre.state.mems[m];
                    p.adr = g.mems[m].adr;
                    p.opn = g.mems[m].opn;
                    if (land(p.opn, 3) == mem_op::kWrite)
                        p.cells[p.adr] = g.mems[m].cells[p.adr];
                }
                pre.cycle = golden.cycle();
                pre.ioValues = golden.engine().inputsConsumed();
            }
            if (nActive > 0 && !hit && golden.cycle() < horizon &&
                golden.cycle() % kSyncCycles == 0)
                sync(false);
        }
        return hit;
    }

    /** Settle the active slots at the golden stop and return each
     *  injection's outcome, cycles and fault. A parked one is SDC
     *  when it differs in a cell, else as its output compares. */
    std::vector<CampaignRecord>
    finish()
    {
        work[kStopSyncs] += nActive > 0 && golden.cycle() % kSyncCycles;
        sync(true);
        const std::string_view gio = goldenIo.view();
        std::vector<CampaignRecord> records(sites.size());
        for (size_t i = 0; i < sites.size(); ++i) {
            Injection &in = inj[i];
            records[i] = std::move(in.record);
            if (in.decided)
                continue;
            records[i].cyclesRun = golden.cycle();
            if (!in.diff.empty() ||
                (in.outputDiffers &&
                 in.out.append(gio.substr(in.outTo)) != gio))
                records[i].outcome = FaultOutcome::Sdc;
        }
        for (size_t w = 0; w < kWorkCount; ++w)
            metrics::counter(std::string("campaign.") + kWorkNames[w])
                .add(work[w]);
        return records;
    }
};

/** One campaign. With `decide`, a transient campaign's injections run
 *  in lockstep with the golden run (DESIGN.md §10); without it, and
 *  for splice campaigns, every injection is one BatchRunner instance
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
    faultPolicy(o.injector);

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
    if (watch && rs->valueSlot(o.watchName) < 0) {
        throw SimError(std::string("campaign completion watchpoint: ") +
                       unknownComponent(o.watchName).what());
    }
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

    // ----- The golden run's second half: in lockstep with the
    // injections, or straight to its stop ahead of the fan-out.
    CampaignResult result;
    result.threads = 1;
    Lockstep lockstep{o,        *rs,      base,    sites,
                      golden,   goldenIo, horizon, horizon + hangBudget};
    if (!(decide ? lockstep.run()
                 : advance(golden, o, horizon - goldenCycle)) &&
        watch) {
        throw SimError("campaign golden run never reached the "
                       "completion watchpoint <" + o.watchName + ":" +
                       std::to_string(o.watchValue) +
                       "> within the horizon " +
                       std::to_string(horizon));
    }
    std::vector<CampaignRecord> records =
        decide ? lockstep.finish() : std::vector<CampaignRecord>{};
    result.instanceCycles = lockstep.work[kInstanceCycles];
    const uint64_t goldenCycles = golden.cycle();
    goldenSpan.finish();

    if (!decide) {
        // ----- Fan-out: one instance per injection, classified
        // against the golden reference (DESIGN.md §10). A transient
        // instance produced only the output after the golden cycle.
        std::shared_ptr<const EngineSnapshot> goldenSnap;
        if (checkpoint) {
            // Decode once through the real load path (validating the
            // file we just wrote); instances share the snapshot.
            goldenSnap = std::make_shared<const EngineSnapshot>(
                loadCheckpoint(goldenPath, *rs));
        }
        BatchOptions batchOpts;
        batchOpts.threads = o.threads;
        batchOpts.captureState = true;
        BatchRunner runner(batchOpts);
        for (const FaultSite &site : sites) {
            BatchJob job;
            job.options = base;
            job.label = formatFaultSite(site);
            job.options.fault = job.label;
            job.cycles = horizon + hangBudget;
            job.watchName = o.watchName;
            job.watchValue = o.watchValue;
            job.restoreSnapshot = goldenSnap;
            runner.addJob(std::move(job));
        }
        tracing::Span fanoutSpan("campaign.fanout", "campaign");
        if (fanoutSpan.active())
            fanoutSpan.setArgs("\"runs\":" + std::to_string(o.runs) +
                               ",\"threads\":" + std::to_string(o.threads));
        const BatchResult batch = runner.run();
        fanoutSpan.finish();
        result.threads = batch.threads;

        const MachineState &goldenState = golden.engine().state();
        const std::string_view refIo =
            goldenIo.view().substr(o.splice ? 0 : goldenIoPrefix);
        for (const InstanceResult &r : batch.instances) {
            CampaignRecord &rec = records.emplace_back(CampaignRecord{
                {}, {}, FaultOutcome::Sdc, r.cyclesRun, r.fault});
            if (r.faulted)
                rec.outcome = FaultOutcome::EngineFault;
            else if (watch && !r.watchpointHit)
                rec.outcome = FaultOutcome::Hang;
            else if (r.cyclesRun == goldenCycles && r.ioText == refIo &&
                     r.state.mems == goldenState.mems &&
                     std::ranges::equal(r.state.latches(),
                                        goldenState.latches()))
                rec.outcome = FaultOutcome::Masked;
            if (metrics::timingEnabled()) {
                // Where fan-out wall time goes, per outcome. Metrics
                // only: the report bytes never read them.
                metrics::histogram(
                    std::string("campaign.run_ns.") +
                        faultOutcomeName(rec.outcome),
                    metrics::Histogram::exponentialBounds(1000, 4.0,
                                                          16))
                    .record(static_cast<uint64_t>(r.seconds * 1e9));
            }
        }
    }

    // ----- Report, in sampling order.
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

    std::map<std::string, CampaignCounts> perComponent;
    tracing::Span classifySpan("campaign.classify", "campaign");
    const bool timed = metrics::timingEnabled();
    for (uint64_t i = 0; i < o.runs; ++i) {
        CampaignRecord &rec = records[i];
        rec.site = formatFaultSite(sites[i]);
        rec.component = sites[i].component;
        if (timed) {
            metrics::counter(std::string("campaign.outcome.") +
                             faultOutcomeName(rec.outcome))
                .add();
        }
        result.total.add(rec.outcome);
        perComponent[rec.component].add(rec.outcome);
    }
    result.records = std::move(records);
    result.components.assign(perComponent.begin(),
                             perComponent.end());
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

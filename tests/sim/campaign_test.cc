/** @file
 * Tests of the fault-injection campaign driver (analysis/campaign.hh):
 * the determinism contract (byte-identical JSON across thread counts
 * and reruns of the same seed), outcome classification against the
 * golden reference (masked / SDC / simulator fault / hang), the
 * transient state-site universe, the shared snapshot-injection
 * primitive, the configuration errors run() promises, and the
 * identity of the golden run's decisions with the brute-force fan-out.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign.hh"
#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

std::string
specPath(const std::string &name)
{
    return std::string(ASIM_SPECS_DIR) + "/" + name;
}

/** A counter (count = cycle) with a cycle count for the horizon. */
const char *kCounterSpec = "# plain counter\n"
                           "= 20\n"
                           "count* next .\n"
                           "A next 4 count 1\n"
                           "M count 0 next 1 1\n"
                           ".\n";

/** The same counter addressing a 40-cell memory with its own value:
 *  an upset that jumps `count` past 40 turns into an out-of-range
 *  memory operation — a simulator fault. */
const char *kAddressedSpec = "# counter addressing mem[count]\n"
                             "= 20\n"
                             "count* next .\n"
                             "A next 4 count 1\n"
                             "M count 0 next 1 1\n"
                             "M mem count count 1 40\n"
                             ".\n";

CampaignOptions
campaignFor(const char *specText, uint64_t runs, uint64_t seed)
{
    CampaignOptions o;
    o.base.specText = specText;
    o.runs = runs;
    o.seed = seed;
    o.threads = 2;
    return o;
}

TEST(Campaign, JsonIdenticalAcrossThreadCounts)
{
    std::string reference;
    for (unsigned threads : {1u, 2u, 0u}) {
        CampaignOptions o;
        o.base.specFile = specPath("gcd.asim");
        o.runs = 96;
        o.seed = 11;
        o.threads = threads;
        std::string json = CampaignRunner(o).run().json();
        if (reference.empty())
            reference = json;
        else
            EXPECT_EQ(json, reference) << threads << " threads";
    }
    EXPECT_NE(reference.find("\"runs\": 96"), std::string::npos);
}

TEST(Campaign, SameSeedReproducibleDifferentSeedNot)
{
    auto o = campaignFor(kCounterSpec, 32, 5);
    std::string first = CampaignRunner(o).run().json();
    std::string again = CampaignRunner(o).run().json();
    EXPECT_EQ(first, again);

    o.seed = 6;
    EXPECT_NE(CampaignRunner(o).run().json(), first)
        << "different seed must sample different faults";
}

TEST(Campaign, WatchpointCampaignClassifiesHangs)
{
    // Golden counter hits count == 15 at cycle 15. An upset that
    // pushes `count` past 15 before then can never reach the
    // watchpoint again (the counter only climbs), so it hangs; an
    // upset sampled after the golden stop cycle is never applied, so
    // it is masked; a small perturbation shifts the hit cycle — SDC.
    auto o = campaignFor(kCounterSpec, 48, 3);
    o.goldenCycle = 5;
    o.watchName = "count";
    o.watchValue = 15;
    CampaignResult r = CampaignRunner(o).run();

    EXPECT_EQ(r.goldenCycles, 15u);
    EXPECT_EQ(r.total.injections, 48u);
    EXPECT_GT(r.total.hang, 0u);
    EXPECT_GT(r.total.masked, 0u);
    EXPECT_GT(r.total.sdc, 0u);
    EXPECT_EQ(r.total.masked + r.total.sdc + r.total.fault +
                  r.total.hang,
              r.total.injections);
    // The spec's only state is `count`; every record aggregates there.
    ASSERT_EQ(r.components.size(), 1u);
    EXPECT_EQ(r.components[0].first, "count");
    for (const CampaignRecord &rec : r.records) {
        EXPECT_EQ(rec.component, "count");
        if (rec.outcome == FaultOutcome::Hang) {
            EXPECT_FALSE(rec.site.empty());
        }
    }
}

TEST(Campaign, EngineFaultsClassifiedAndCarryDiagnostic)
{
    CampaignResult r =
        CampaignRunner(campaignFor(kAddressedSpec, 96, 1)).run();
    EXPECT_GT(r.total.fault, 0u)
        << "a flipped high bit of count must walk off mem";
    for (const CampaignRecord &rec : r.records) {
        if (rec.outcome == FaultOutcome::EngineFault)
            EXPECT_NE(rec.fault.find("mem"), std::string::npos)
                << rec.fault;
        else
            EXPECT_TRUE(rec.fault.empty()) << rec.site;
    }
}

TEST(Campaign, SpliceCampaignRunsFromCycleZero)
{
    auto o = campaignFor(kCounterSpec, 32, 7);
    o.splice = true;
    o.goldenCycle = 9; // ignored: splices cannot restore the golden
    CampaignResult r = CampaignRunner(o).run();
    EXPECT_TRUE(r.splice);
    EXPECT_EQ(r.goldenCycle, 0u);
    EXPECT_EQ(r.total.injections, 32u);
    // Splices sample every component, not just state.
    bool sawAlu = false;
    for (const auto &[name, counts] : r.components)
        sawAlu = sawAlu || name == "next";
    EXPECT_TRUE(sawAlu) << "combinational components are splice "
                           "targets";
    EXPECT_GT(r.total.sdc, 0u);
}

/** A seeded splice campaign's report, byte for byte as measured while
 *  ResolvedSpec still kept a syntax tree: splice sites sample
 *  component names in definition order from ast(), and a drift in
 *  that order (or in the spliced specs) changes the sites. */
TEST(Campaign, SpliceReportPinnedOnGcd)
{
    CampaignOptions o;
    o.base.specFile = specPath("gcd.asim");
    o.runs = 12;
    o.seed = 5;
    o.threads = 2;
    o.splice = true;
    const std::string expected = R"json({
  "campaign": {"runs": 12, "seed": 5, "injector": "toggle", "engine": "vm", "splice": true, "golden_cycle": 0, "horizon": 41, "hang_budget": 0, "watch": "", "watch_value": 0, "golden_cycles": 41},
  "total": {"injections": 12, "masked": 3, "sdc": 9, "fault": 0, "hang": 0, "vulnerability": 0.750000},
  "components": [
    {"component": "a", "injections": 2, "masked": 0, "sdc": 2, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "b", "injections": 2, "masked": 0, "sdc": 2, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "bdiff", "injections": 1, "masked": 0, "sdc": 1, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "bgta", "injections": 1, "masked": 1, "sdc": 0, "fault": 0, "hang": 0, "vulnerability": 0.000000},
    {"component": "bnext", "injections": 1, "masked": 0, "sdc": 1, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "cnt", "injections": 2, "masked": 0, "sdc": 2, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "op", "injections": 1, "masked": 0, "sdc": 1, "fault": 0, "hang": 0, "vulnerability": 1.000000},
    {"component": "started", "injections": 2, "masked": 2, "sdc": 0, "fault": 0, "hang": 0, "vulnerability": 0.000000}
  ],
  "records": [
    {"site": "cnt:3:toggle", "component": "cnt", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "started:26:toggle", "component": "started", "outcome": "masked", "cycles": 41, "fault": ""},
    {"site": "b:24:toggle", "component": "b", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "a:6:toggle", "component": "a", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "op:30:toggle", "component": "op", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "cnt:26:toggle", "component": "cnt", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "b:21:toggle", "component": "b", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "bnext:17:toggle", "component": "bnext", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "bdiff:23:toggle", "component": "bdiff", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "a:11:toggle", "component": "a", "outcome": "sdc", "cycles": 41, "fault": ""},
    {"site": "bgta:3:toggle", "component": "bgta", "outcome": "masked", "cycles": 41, "fault": ""},
    {"site": "started:17:toggle", "component": "started", "outcome": "masked", "cycles": 41, "fault": ""}
  ]
}
)json";
    EXPECT_EQ(CampaignRunner(o).run().json(), expected);

    // The symbolic engine splices the shared parsed tree instead of
    // re-parsing it per instance, with the same outcomes.
    o.base.engine = "symbolic";
    std::string symbolic = expected;
    symbolic.replace(symbolic.find("\"engine\": \"vm\""), 14,
                     "\"engine\": \"symbolic\"");
    EXPECT_EQ(CampaignRunner(o).run().json(), symbolic);
}

TEST(Campaign, StateSiteUniverse)
{
    ResolvedSpec rs = resolveText(kAddressedSpec);
    // count: latch + 1 cell; mem: latch + 40 cells.
    ASSERT_EQ(stateSiteCount(rs), 43u);

    FaultSite s0 = stateSiteAt(rs, 0);
    EXPECT_EQ(s0.component, "count");
    EXPECT_EQ(s0.cell, -1);
    FaultSite s1 = stateSiteAt(rs, 1);
    EXPECT_EQ(s1.component, "count");
    EXPECT_EQ(s1.cell, 0);
    FaultSite s2 = stateSiteAt(rs, 2);
    EXPECT_EQ(s2.component, "mem");
    EXPECT_EQ(s2.cell, -1);
    FaultSite sLast = stateSiteAt(rs, 42);
    EXPECT_EQ(sLast.component, "mem");
    EXPECT_EQ(sLast.cell, 39);
    EXPECT_THROW(stateSiteAt(rs, 43), SpecError);
}

TEST(Campaign, LatchOnlyDifferenceIsSdc)
{
    // `f` reads a zero cell every cycle, so an upset of its output
    // latch lives for one cycle: `g` = (0 < f) turns `x` into an
    // input memory for that cycle, and `x` takes one scripted input
    // ahead of `in`. From then on `in` reads the script one value
    // later, so the final state differs from the golden run only in
    // `in`'s output latch: cells, address and operation latches,
    // output and cycle count all match. That is still corrupted
    // state — SDC, not masked.
    auto o = campaignFor("# latch-only difference\n"
                         "= 7\n"
                         "f g x in .\n"
                         "A g 13 0 f\n"
                         "M f 0 0 0 -1 0\n"
                         "M x 0 0 g.0.0,#0 1\n"
                         "M in 0 0 2 1\n"
                         ".\n",
                         64, 2);
    o.base.ioMode = IoMode::Script;
    for (int32_t v = 1; v <= 32; ++v)
        o.base.scriptInputs.push_back(v);
    CampaignResult r = CampaignRunner(o).run();
    int latchSites = 0;
    for (const CampaignRecord &rec : r.records) {
        if (rec.component != "f" || rec.site.find('[') != std::string::npos)
            continue;
        ++latchSites;
        EXPECT_EQ(rec.outcome, FaultOutcome::Sdc) << rec.site;
    }
    EXPECT_GT(latchSites, 0);
}

TEST(Campaign, InjectFaultPerturbsOneStateWord)
{
    SimulationOptions opts;
    opts.specText = kAddressedSpec;
    Simulation sim(opts);
    sim.run(6); // count == 6; mem[c] == c+1 for c < 6 (the memory
                // latches its address, so writes land a cycle late)
    MachineState state = sim.engine().state();
    const ResolvedSpec &rs = sim.resolved();
    const int countMem = rs.memIndex("count");
    const int memMem = rs.memIndex("mem");
    ASSERT_GE(countMem, 0);
    ASSERT_GE(memMem, 0);

    FaultSite latch; // whole-component site = the output latch
    latch.component = "count";
    latch.bit = 3;
    latch.mode = "toggle";
    const int32_t before = state.latches()[countMem];
    EXPECT_EQ(injectFault(state, rs, latch), before);
    EXPECT_EQ(state.latches()[countMem], before ^ 8);

    FaultSite cell;
    cell.component = "mem";
    cell.cell = 3;
    cell.bit = 2;
    cell.mode = "set0";
    EXPECT_EQ(injectFault(state, rs, cell), 4);
    EXPECT_EQ(state.mems[memMem].cells[3], 0); // 4 & ~4

    cell.mode = "set1";
    cell.cell = 2;
    cell.bit = 4;
    injectFault(state, rs, cell);
    EXPECT_EQ(state.mems[memMem].cells[2], 3 | 16);

    const MachineState kept = state;
    FaultSite bogus;
    bogus.component = "next"; // combinational: no state
    EXPECT_THROW(injectFault(state, rs, bogus), SpecError);
    cell.cell = 1 << 20; // past the memory
    EXPECT_THROW(injectFault(state, rs, cell), SpecError);
    cell.cell = 2;
    cell.mode = "bogus";
    EXPECT_THROW(injectFault(state, rs, cell), SpecError);
    EXPECT_TRUE(state == kept) << "a refused fault changes nothing";
}

/** A pointer chase built to reach every way the golden run settles
 *  an injection: `cnt` writes its cell every cycle (a write first);
 *  `f` and `p` read their cell every cycle (the first read falls in
 *  the fault cycle itself); `o` prints `g`, which is `f`'s latch, so
 *  a latch upset of `f` changes that cycle's output; `p` addresses
 *  `mem`, so a high bit flipped in `p`'s cell is read into an
 *  out-of-range address (a simulator fault); and `mem`'s other cells
 *  are never touched again. */
const char *kChaseSpec = "# pointer chase\n"
                         "= 30\n"
                         "cnt next f g o p mem .\n"
                         "A next 4 cnt 1\n"
                         "A g 4 f 0\n"
                         "M cnt 0 next 1 1\n"
                         "M f 0 0 0 -1 0\n"
                         "M o 0 g 3 1\n"
                         "M p 0 0 0 -1 3\n"
                         "M mem p 0 0 -8 1 2 3 4 5 6 7 8\n"
                         ".\n";

/** `LatchOnlyDifferenceIsSdc`'s spec: a latch upset there consumes
 *  one scripted input ahead of time. */
const char *kLatchInputSpec = "# latch-only difference\n"
                              "= 7\n"
                              "f g x in .\n"
                              "A g 13 0 f\n"
                              "M f 0 0 0 -1 0\n"
                              "M x 0 0 g.0.0,#0 1\n"
                              "M in 0 0 2 1\n"
                              ".\n";

/** `w` is combinational, `f`'s latch plus the count, and `f`
 *  re-reads its cell every cycle, so a latch upset of `f` changes
 *  `w` for one cycle and leaves the memories and latches as the
 *  golden run's. Watching `w:20`, the upset can hit the watchpoint a
 *  cycle early or miss the golden hit (then `w` passes 20 and the
 *  instance hangs). */
const char *kWatchedLatchSpec = "# combinational watch on a latch\n"
                                "= 30\n"
                                "cnt next f w .\n"
                                "A next 4 cnt 1\n"
                                "A w 4 f cnt\n"
                                "M cnt 0 next 1 1\n"
                                "M f 0 0 0 -1 0\n"
                                ".\n";

/** Built for the lockstep's paths (DESIGN.md §10), each over several
 *  syncs. `y` reads one of its cells for 16 cycles every 64 and
 *  nothing rewrites them, so a flipped `y` cell parks, wakes and
 *  parks again. `x` reads and then rewrites its cells in turn, and
 *  `o` prints what `x` reads, so a flipped `x` cell prints a wrong
 *  value and then rejoins the golden run (SDC by its output alone).
 *  `bufa` and `bufb` both keep cell 0 what `x` read at cnt = 5 (mod
 *  64) and write their cell 1 otherwise: a flipped `x[5]` read then
 *  parks differing in both cell 0s, which the next such cycle
 *  rewrites together. */
const char *kRejoinSpec = "# lockstep rejoins\n"
                          "= 400\n"
                          "cnt next t keep badr x bufa bufb y o .\n"
                          "A next 4 cnt 1\n"
                          "M cnt 0 next 1 1\n"
                          "A t 8 cnt 63\n"
                          "A keep 12 t 5\n"
                          "A badr 5 1 keep\n"
                          "M x cnt.0.2 cnt.0.2 cnt.3 8\n"
                          "M bufa badr x 1 2\n"
                          "M bufb badr x 1 2\n"
                          "M y cnt.4.5 0 0 -4 1 2 3 4\n"
                          "M o 1 x 3 1\n"
                          ".\n";

/** `in` takes a scripted input whenever `y` reads more than 6 — in
 *  the golden run, while `y` reads its cell 0 (16 cycles in 64), and
 *  `log` keeps those inputs. A `y` latch flipped above 6 elsewhere
 *  makes `in` take an input `log` does not keep: the instance then
 *  equals the golden run but for its input cursor, which shifts every
 *  later logged input. */
const char *kInputCursorSpec = "# lockstep input cursor\n"
                               "= 400\n"
                               "cnt next win isin inop dolog y in log .\n"
                               "A next 4 cnt 1\n"
                               "M cnt 0 next 1 1\n"
                               "A win 12 cnt.4.5 0\n"
                               "A isin 13 6 y\n"
                               "A inop 7 isin 2\n"
                               "A dolog 8 isin win\n"
                               "M y cnt.4.5 0 0 -4 7 3 5 6\n"
                               "M in isin 0 inop 1\n"
                               "M log cnt.6.8 in dolog 8\n"
                               ".\n";

/** The lockstep's registry counter `campaign.<name>`. */
uint64_t
lockstepCounter(const std::string &name)
{
    return metrics::counter("campaign." + name).value();
}

/** A completion watchpoint for `o`'s golden run: the first component
 *  whose value at 3/4 of the horizon differs from its value at the
 *  golden cycle (horizon / 2), so the golden run reaches it after
 *  the golden cycle and before the horizon. Empty when none does. */
std::pair<std::string, int32_t>
pickWatch(const CampaignOptions &o)
{
    std::ostringstream io;
    SimulationOptions base = o.base;
    base.ioOut = &io;
    Simulation sim(base);
    const uint64_t horizon =
        o.horizon ? o.horizon
                  : static_cast<uint64_t>(sim.defaultCycles());
    sim.run(horizon / 2);
    const Spec ast = sim.resolved().ast();
    std::vector<int32_t> atGolden;
    for (const Component &c : ast.comps)
        atGolden.push_back(sim.value(ast.name(c.name)));
    sim.run(horizon * 3 / 4 - horizon / 2);
    for (size_t i = 0; i < ast.comps.size(); ++i) {
        const std::string name(ast.name(ast.comps[i].name));
        if (sim.value(name) != atGolden[i])
            return {name, sim.value(name)};
    }
    return {};
}

/** What the decided runs of one spec covered, summed over the
 *  policy/watch/engine matrix. */
struct Coverage
{
    uint64_t injections = 0;
    uint64_t faults = 0;       ///< EngineFault records
    uint64_t pastWatchHit = 0; ///< fault cycle >= the golden stop
};

/** Runs `o` under toggle/set0/set1, without and with a watchpoint
 *  (`o`'s own, else pickWatch's), under vm and interp, and requires
 *  the decided report to equal the brute-force one byte for byte.
 *  Only every `stride`-th of the 12 combinations runs, starting at
 *  `first`. */
Coverage
expectDecidedMatchesBruteForce(CampaignOptions o, const std::string &what,
                               size_t first = 0, size_t stride = 1)
{
    Coverage cov;
    const auto [watchName, watchValue] =
        o.watchName.empty() ? pickWatch(o)
                            : std::pair(o.watchName, o.watchValue);
    o.watchName.clear();
    size_t combo = 0;
    for (const char *injector : {"toggle", "set0", "set1"}) {
        for (const bool watched : {false, true}) {
            for (const char *engine : {"vm", "interp"}) {
                if (combo++ % stride != first % stride)
                    continue;
                if (watched && watchName.empty())
                    continue;
                CampaignOptions c = o;
                c.injector = injector;
                c.base.engine = engine;
                if (watched) {
                    c.watchName = watchName;
                    c.watchValue = watchValue;
                }
                const CampaignResult decided = CampaignRunner(c).run();
                const std::string expected =
                    runBruteForceCampaign(c).json();
                EXPECT_EQ(decided.json(), expected)
                    << what << " " << injector << " " << engine
                    << (watched ? " watch " + watchName : "");
                cov.injections += decided.total.injections;
                cov.faults += decided.total.fault;
                for (const CampaignRecord &rec : decided.records) {
                    if (watched &&
                        parseFaultSite(rec.site).cycle >=
                            decided.goldenCycles)
                        ++cov.pastWatchHit;
                }
            }
        }
    }
    return cov;
}

TEST(Campaign, DecidedMatchesBruteForce)
{
    // Every shipped spec with a memory, scripted input for echo.
    size_t specs = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() != ".asim")
            continue;
        CampaignOptions o;
        o.base.specFile = entry.path().string();
        if (stateSiteCount(Simulation::loadSpec(o.base)) == 0)
            continue;
        ++specs;
        o.base.ioMode = IoMode::Script;
        for (int32_t v = 1; v <= 64; ++v)
            o.base.scriptInputs.push_back(v);
        o.runs = 96;
        o.seed = 3;
        o.threads = 2;
        expectDecidedMatchesBruteForce(o, entry.path().filename());
    }
    EXPECT_GE(specs, 7u);

    // The hand-built rows: a fault cycle at or past the golden watch
    // hit, a latch upset that changes its cycle's output or its
    // cycle's combinational watch value, a read that turns into a
    // simulator fault, and fault cycles equal to the first read's.
    CampaignOptions chase = campaignFor(kChaseSpec, 128, 4);
    chase.base.ioMode = IoMode::Script;
    const Coverage cov = expectDecidedMatchesBruteForce(chase, "chase");
    EXPECT_GT(cov.faults, 0u);
    EXPECT_GT(cov.pastWatchHit, 0u);

    CampaignOptions latch = campaignFor(kLatchInputSpec, 64, 2);
    latch.base.ioMode = IoMode::Script;
    for (int32_t v = 1; v <= 32; ++v)
        latch.base.scriptInputs.push_back(v);
    expectDecidedMatchesBruteForce(latch, "latch input");

    // A latch upset whose cycle's combinational watch value differs.
    CampaignOptions watched = campaignFor(kWatchedLatchSpec, 256, 6);
    watched.watchName = "w";
    watched.watchValue = 20;
    expectDecidedMatchesBruteForce(watched, "watched latch");

    // The lockstep's paths, each required to run: an instance that
    // parks, wakes and parks again; a golden write that empties a
    // two-cell diff; a rejoin after printing different output; an
    // instance held active by its input cursor alone; and (watching
    // cnt:330, between the syncs at 320 and 352) a golden stop between
    // two syncs with instances active.
    const char *paths[] = {"reparks", "wide_rejoins", "output_rejoins",
                           "input_held", "stop_syncs"};
    std::vector<uint64_t> before;
    for (const char *path : paths)
        before.push_back(lockstepCounter(path));
    CampaignOptions rejoin = campaignFor(kRejoinSpec, 256, 8);
    rejoin.base.ioMode = IoMode::Script;
    rejoin.watchName = "cnt";
    rejoin.watchValue = 330;
    expectDecidedMatchesBruteForce(rejoin, "rejoin");
    CampaignOptions cursor = campaignFor(kInputCursorSpec, 256, 9);
    cursor.base.ioMode = IoMode::Script;
    for (int32_t v = 1; v <= 2000; ++v)
        cursor.base.scriptInputs.push_back(v);
    expectDecidedMatchesBruteForce(cursor, "input cursor");
    for (size_t i = 0; i < std::size(paths); ++i)
        EXPECT_GT(lockstepCounter(paths[i]), before[i]) << paths[i];

    // The sieve perfbench's campaign runs, at every size it uses,
    // two seeds each; the 12 policy/watch/engine combinations rotate
    // over the sizes. The watchpoint is the machine's HALT, with a
    // horizon past it. The golden cycle sits 2048 cycles before HALT,
    // so the brute-force reference stays cheap under sanitizers.
    for (int size = 40; size <= 54; ++size) {
        SimulationOptions so;
        so.specText = stackMachineSpec(sieveProgram(size), 1000000);
        Simulation sim(so);
        const uint64_t halt =
            sim.runUntilValue("state", kStackHaltState, 1000000);
        for (uint64_t k = 0; k < 2; ++k) {
            CampaignOptions o;
            o.base.specText = so.specText;
            o.runs = 24;
            o.seed = static_cast<uint64_t>(size) * 2 + k;
            o.threads = 2;
            o.goldenCycle = halt - 2048;
            o.horizon = halt + 64;
            o.hangBudget = 256;
            o.watchName = "state";
            o.watchValue = kStackHaltState;
            const size_t combo = static_cast<size_t>(size - 40) * 2 + k;
            expectDecidedMatchesBruteForce(
                o, "sieve " + std::to_string(size), combo, 12);
        }
    }
}

TEST(Campaign, LockstepWorkBound)
{
    // perfbench's campaign: sieve 41, seed 1, 512 toggle injections,
    // horizon at HALT, golden cycle at half of it. Running each
    // injection from its first read to the horizon took ~363k
    // instance cycles; the lockstep takes 96,245. The bound counts
    // work, not time, so it cannot flake.
    SimulationOptions so;
    so.specText = stackMachineSpec(sieveProgram(41), 1000000, true);
    Simulation sim(so);
    CampaignOptions o;
    o.base.specText = so.specText;
    o.runs = 512;
    o.seed = 1;
    o.horizon = sim.runUntilValue("state", kStackHaltState, 1000000);
    const uint64_t counted = lockstepCounter("instance_cycles");
    const uint64_t wakes = lockstepCounter("wakes");
    const CampaignResult r = CampaignRunner(o).run();
    EXPECT_EQ(r.total.injections, 512u);
    EXPECT_GT(r.instanceCycles, 0u);
    EXPECT_LE(r.instanceCycles, 150000u);
    EXPECT_EQ(lockstepCounter("instance_cycles") - counted,
              r.instanceCycles);
    EXPECT_GT(lockstepCounter("wakes"), wakes);
    EXPECT_EQ(r.json().find("instance"), std::string::npos);
    EXPECT_EQ(r.table().find("instance"), std::string::npos);
}

TEST(Campaign, ConfigurationErrors)
{
    // Golden cycle at/after the horizon (`= 20` runs 21 inclusive
    // thesis iterations).
    auto o = campaignFor(kCounterSpec, 8, 1);
    o.goldenCycle = 21;
    EXPECT_THROW(CampaignRunner(o).run(), SimError);

    // Unknown injector refused before any simulation runs.
    o = campaignFor(kCounterSpec, 8, 1);
    o.injector = "bogus";
    EXPECT_THROW(CampaignRunner(o).run(), SpecError);

    // Interactive I/O cannot fan out.
    o = campaignFor(kCounterSpec, 8, 1);
    o.base.ioMode = IoMode::Interactive;
    EXPECT_THROW(CampaignRunner(o).run(), SimError);

    // No horizon: spec names no cycle count and none was given.
    o = campaignFor("# no cycle count\n"
                    "count* next .\n"
                    "A next 4 count 1\n"
                    "M count 0 next 1 1\n"
                    ".\n",
                    8, 1);
    EXPECT_THROW(CampaignRunner(o).run(), SimError);

    // Zero runs.
    o = campaignFor(kCounterSpec, 8, 1);
    o.runs = 0;
    EXPECT_THROW(CampaignRunner(o).run(), SimError);
}

TEST(Campaign, WatchpointMustBeReachableByGolden)
{
    auto o = campaignFor(kCounterSpec, 8, 1);
    o.watchName = "count";
    o.watchValue = 1000; // counter never gets there in 20 cycles
    EXPECT_THROW(CampaignRunner(o).run(), SimError);

    // Golden checkpoint taken after the watchpoint already fired.
    o = campaignFor(kCounterSpec, 8, 1);
    o.goldenCycle = 10;
    o.watchName = "count";
    o.watchValue = 4;
    EXPECT_THROW(CampaignRunner(o).run(), SimError);
}

TEST(Campaign, UnknownWatchRefusedBeforeTheGoldenRun)
{
    // A watchpoint naming no component is refused before the golden
    // run builds an engine, transient and splice campaigns alike.
    for (bool splice : {false, true}) {
        auto o = campaignFor(kCounterSpec, 8, 1);
        o.splice = splice;
        o.watchName = "nosuch";
        const uint64_t built =
            metrics::counter("sim.engines_built.vm").value();
        try {
            CampaignRunner(o).run();
            FAIL() << "expected SimError";
        } catch (const SimError &e) {
            EXPECT_STREQ(e.what(), "campaign completion watchpoint: "
                                   "unknown component <nosuch>");
        }
        EXPECT_EQ(metrics::counter("sim.engines_built.vm").value(), built);
    }
}

TEST(Campaign, TableCarriesTotalsAndJsonOmitsTimings)
{
    CampaignResult r =
        CampaignRunner(campaignFor(kCounterSpec, 16, 2)).run();
    std::string table = r.table();
    EXPECT_NE(table.find("total"), std::string::npos);
    EXPECT_NE(table.find("vulnerable"), std::string::npos);
    EXPECT_NE(table.find(" threads)"), std::string::npos);

    std::string json = r.json();
    EXPECT_EQ(json.find("seconds"), std::string::npos);
    EXPECT_EQ(json.find("threads"), std::string::npos);
    EXPECT_NE(json.find("\"records\""), std::string::npos);
}

} // namespace
} // namespace asim

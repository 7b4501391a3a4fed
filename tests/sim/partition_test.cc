/** @file
 * Partitioned-execution tests (sim/partition.hh): the bulk-
 * synchronous partitioned interpreter must be byte-identical to the
 * serial interpreter — traces, scripted I/O, statistics, checkpoints,
 * and fault messages — at every lane count, on both schedule shapes
 * (component-packed and levelized), plus plan-validity and balance
 * checks and the facade's auto-off threshold.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "machines/synthetic.hh"
#include "sim/checkpoint.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"

namespace asim {
namespace {

const unsigned kLaneCounts[] = {2, 3, 8};

/** Everything observable about one run. */
struct RunResult
{
    std::string trace;
    std::string io;
    std::string ckpt; ///< encoded checkpoint (empty after a fault)
    std::string stats;
    std::string error; ///< SimError text ("" = clean run)
    uint64_t cycle = 0;
};

RunResult
runOnce(const std::string &specText, unsigned partitions,
        uint64_t cycles, const std::vector<int32_t> &inputs = {})
{
    SimulationOptions o;
    o.specText = specText;
    o.engine = "interp";
    o.partitions = partitions;
    o.partitionMinComponents = 1; // force tiny specs through
    std::ostringstream traceOs, ioOs;
    o.traceStream = &traceOs;
    o.ioMode = inputs.empty() ? IoMode::Null : IoMode::Script;
    o.scriptInputs = inputs;
    o.ioOut = &ioOs;

    Simulation sim(o);
    RunResult rr;
    try {
        sim.run(cycles);
    } catch (const SimError &e) {
        rr.error = e.what();
    }
    rr.trace = traceOs.str();
    rr.io = ioOs.str();
    rr.cycle = sim.cycle();
    rr.stats = sim.stats().summary();
    if (rr.error.empty()) {
        // The checkpoint encoding covers cycle, input cursor,
        // statistics, and the full machine state; fix savedBy so the
        // comparison is over content, not provenance.
        rr.ckpt = encodeCheckpoint(sim.snapshot(), sim.specHash(),
                                   "test");
    }
    return rr;
}

/** Serial-vs-partitioned byte identity across the lane matrix. */
void
expectIdenticalAcrossLanes(const std::string &specText, uint64_t cycles,
                           const std::vector<int32_t> &inputs = {})
{
    RunResult serial = runOnce(specText, 1, cycles, inputs);
    for (unsigned lanes : kLaneCounts) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        RunResult part = runOnce(specText, lanes, cycles, inputs);
        EXPECT_EQ(serial.trace, part.trace);
        EXPECT_EQ(serial.io, part.io);
        EXPECT_EQ(serial.stats, part.stats);
        EXPECT_EQ(serial.error, part.error);
        EXPECT_EQ(serial.cycle, part.cycle);
        EXPECT_EQ(serial.ckpt, part.ckpt);
    }
}

/** `chains` independent 3-ALU chains, each closed through its own
 *  memory — many small connected components, the component-packer's
 *  case. */
std::string
chainsSpec(int chains)
{
    std::string decls, comps;
    for (int i = 0; i < chains; ++i) {
        std::string n = std::to_string(i);
        decls += "a" + n + "* b" + n + " c" + n + "* m" + n + " ";
        comps += "A a" + n + " 4 m" + n + ".0.7 " + n + "\n";
        comps += "A b" + n + " 4 a" + n + ".0.5 1\n";
        comps += "A c" + n + " 10 b" + n + ".0.7 a" + n + ".0.3\n";
        comps += "M m" + n + " 0 c" + n + " 1 1\n";
    }
    return "# chains\n= 30\n" + decls + ".\n" + comps + ".\n";
}

/** One dense component: every ALU reads the previous two, so every
 *  partition boundary cuts edges and the plan must levelize. */
std::string
denseSpec(int alus)
{
    std::string decls = "m0 ", comps;
    for (int i = 0; i < alus; ++i) {
        std::string n = std::to_string(i);
        decls += "d" + n + (i % 7 == 0 ? "* " : " ");
        std::string left =
            i == 0 ? "m0.0.7" : "d" + std::to_string(i - 1) + ".0.9";
        std::string right =
            i < 2 ? "3" : "d" + std::to_string(i - 2) + ".0.6";
        comps += "A d" + n + " " + std::to_string(i % 6) + " " + left +
                 " " + right + "\n";
    }
    comps += "M m0 0 d" + std::to_string(alus - 1) + " 1 1\n";
    return "# dense\n= 25\n" + decls + ".\n" + comps + ".\n";
}

TEST(Partition, PackedChainsIdenticalAcrossLanes)
{
    expectIdenticalAcrossLanes(chainsSpec(12), 30);
}

TEST(Partition, DenseLevelizedIdenticalAcrossLanes)
{
    expectIdenticalAcrossLanes(denseSpec(40), 25);
}

TEST(Partition, ScriptedIoIdenticalAcrossLanes)
{
    // Multiple I/O memories interleaved with computation: input at
    // address 1, transformed outputs — update order is observable in
    // the scripted-output text and must stay declaration order.
    std::string spec = "# io\n= 8\n"
                       "in sum twice out1 out2 .\n"
                       "A sum 4 in.0.7 1\n"
                       "A twice 4 in.0.7 in.0.7\n"
                       "M in 1 0 2 1\n"
                       "M out1 1 sum 3 1\n"
                       "M out2 2 twice 3 1\n"
                       ".\n";
    expectIdenticalAcrossLanes(spec, 8, {5, 10, 15, 20, 25, 30, 35, 40});
}

TEST(Partition, UpdateClusterKeepsDeclarationOrder)
{
    // m2's data reads m1's output latch and m3's reads m2's: the
    // serial update loop lets m2 see m1's *new* temp within the same
    // cycle. The partitioned engine must cluster them onto one lane.
    std::string spec = "# t\n= 20\n"
                       "x m1 m2 m3 q q0 .\n"
                       "A x 4 m1.0.7 1\n"
                       "A q 4 m3.0.7 2\n"
                       "M m1 0 x 1 1\n"
                       "M m2 0 m1 1 1\n"
                       "M m3 0 m2 1 1\n"
                       "M q0 0 q 1 1\n"
                       ".\n";
    expectIdenticalAcrossLanes(spec, 20);

    ResolvedSpec rs = resolveText(spec);
    PartitionPlan plan = buildPartitionPlan(rs, 4, false);
    // {m1, m2, m3} share one lane; q0 may go anywhere.
    int laneOfM1 = -1, laneOfM2 = -1, laneOfM3 = -1;
    for (size_t l = 0; l < plan.updateLanes.size(); ++l) {
        for (int32_t mi : plan.updateLanes[l]) {
            if (rs.name(rs.mems[mi].name) == "m1")
                laneOfM1 = static_cast<int>(l);
            if (rs.name(rs.mems[mi].name) == "m2")
                laneOfM2 = static_cast<int>(l);
            if (rs.name(rs.mems[mi].name) == "m3")
                laneOfM3 = static_cast<int>(l);
        }
    }
    EXPECT_NE(laneOfM1, -1);
    EXPECT_EQ(laneOfM1, laneOfM2);
    EXPECT_EQ(laneOfM2, laneOfM3);
}

TEST(Partition, SyntheticLayeredMatrix)
{
    for (uint32_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        SyntheticOptions so;
        so.alus = 300;
        so.selectors = 60;
        so.memories = 6;
        so.seed = seed;
        so.layers = 8;
        so.localityPercent = 85;
        std::vector<int32_t> inputs;
        for (int i = 0; i < 512; ++i)
            inputs.push_back(i * 7 + 3);
        expectIdenticalAcrossLanes(generateSyntheticText(so), 40,
                                   inputs);
    }
}

TEST(Partition, SyntheticLegacyGiantComponent)
{
    // layers=0 growth wires everything together: typically one giant
    // connected component, exercising the levelized fallback.
    SyntheticOptions so;
    so.alus = 200;
    so.selectors = 40;
    so.memories = 4;
    so.seed = 11;
    std::vector<int32_t> inputs;
    for (int i = 0; i < 512; ++i)
        inputs.push_back(i * 13 + 1);
    expectIdenticalAcrossLanes(generateSyntheticText(so), 40, inputs);
}

TEST(Partition, FaultMessageAndCycleIdentical)
{
    // A counter drives a 2-case selector; when count reaches 2 the
    // selector index is out of range. Same SimError text, same cycle,
    // at every lane count.
    std::string spec = "# t\n= 20\n"
                       "next pick count .\n"
                       "A next 4 count.0.3 1\n"
                       "S pick count.0.3 7 9\n"
                       "M count 0 next 1 1\n"
                       ".\n";
    RunResult serial = runOnce(spec, 1, 20);
    ASSERT_FALSE(serial.error.empty());
    for (unsigned lanes : kLaneCounts) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        RunResult part = runOnce(spec, lanes, 20);
        EXPECT_EQ(serial.error, part.error);
        EXPECT_EQ(serial.cycle, part.cycle);
        EXPECT_EQ(serial.trace, part.trace);
    }
}

TEST(Partition, MemoryFaultIdentical)
{
    // Address climbs past the memory size mid-run.
    std::string spec = "# t\n= 20\n"
                       "next m .\n"
                       "A next 4 m.0.5 1\n"
                       "M m next next 1 4\n"
                       ".\n";
    RunResult serial = runOnce(spec, 1, 20);
    ASSERT_FALSE(serial.error.empty());
    for (unsigned lanes : kLaneCounts) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        RunResult part = runOnce(spec, lanes, 20);
        EXPECT_EQ(serial.error, part.error);
        EXPECT_EQ(serial.cycle, part.cycle);
    }
}

// ---------------------------------------------------------------------
// Plan construction

/** Every component/memory appears exactly once in its schedule. */
void
expectPlanCoversSpec(const PartitionPlan &plan, const ResolvedSpec &rs)
{
    std::vector<int> combSeen(rs.comb.size(), 0);
    for (const auto &phase : plan.combPhases) {
        EXPECT_EQ(phase.size(), plan.lanes);
        for (const auto &lane : phase) {
            for (size_t k = 0; k < lane.size(); ++k) {
                ++combSeen[lane[k]];
                if (k > 0) {
                    EXPECT_LT(lane[k - 1], lane[k]); // topo order
                }
            }
        }
    }
    for (size_t i = 0; i < combSeen.size(); ++i)
        EXPECT_EQ(combSeen[i], 1) << "comb " << i;

    std::vector<int> latchSeen(rs.mems.size(), 0);
    for (const auto &lane : plan.latchLanes)
        for (int32_t mi : lane)
            ++latchSeen[mi];
    std::vector<int> updateSeen(rs.mems.size(), 0);
    for (const auto &lane : plan.updateLanes)
        for (int32_t mi : lane)
            ++updateSeen[mi];
    for (int32_t mi : plan.serialUpdates)
        ++updateSeen[mi];
    for (size_t i = 0; i < rs.mems.size(); ++i) {
        EXPECT_EQ(latchSeen[i], 1) << "mem " << i;
        EXPECT_EQ(updateSeen[i], 1) << "mem " << i;
    }
}

TEST(PartitionPlan, PackedChainsBalancedNoCrossEdges)
{
    ResolvedSpec rs = resolveText(chainsSpec(16));
    PartitionPlan plan = buildPartitionPlan(rs, 4, false);
    expectPlanCoversSpec(plan, rs);
    EXPECT_FALSE(plan.levelized);
    EXPECT_EQ(plan.levels, 1u);
    EXPECT_EQ(plan.crossEdges, 0u);
    EXPECT_EQ(plan.combComponents, 16u);
    // 16 equal chains over 4 lanes: near-perfect LPT balance.
    EXPECT_GE(plan.minLaneWeight * 5, plan.maxLaneWeight * 4);
    EXPECT_TRUE(plan.summary().find("component-packed") !=
                std::string::npos);
}

TEST(PartitionPlan, DenseSpecLevelizes)
{
    ResolvedSpec rs = resolveText(denseSpec(60));
    PartitionPlan plan = buildPartitionPlan(rs, 4, false);
    expectPlanCoversSpec(plan, rs);
    EXPECT_TRUE(plan.levelized);
    EXPECT_GT(plan.levels, 1u);
    EXPECT_GT(plan.totalEdges, 0u);
}

TEST(PartitionPlan, FullLocalityCorpusPacks)
{
    SyntheticOptions so;
    so.alus = 800;
    so.selectors = 100;
    so.memories = 4;
    so.seed = 5;
    so.layers = 8;
    so.localityPercent = 100; // pure column chains
    so.withIo = false;
    ResolvedSpec rs = resolveText(generateSyntheticText(so));
    PartitionPlan plan = buildPartitionPlan(rs, 4, false);
    expectPlanCoversSpec(plan, rs);
    EXPECT_FALSE(plan.levelized);
    EXPECT_EQ(plan.crossEdges, 0u);
    EXPECT_GT(plan.combComponents, 4u);
}

TEST(PartitionPlan, IoMemoriesGoSerial)
{
    std::string spec = "# t\n= 4\n"
                       "in out plain sum .\n"
                       "A sum 4 in.0.7 1\n"
                       "M in 1 0 2 1\n"
                       "M out 1 sum 3 1\n"
                       "M plain 0 sum 1 1\n"
                       ".\n";
    ResolvedSpec rs = resolveText(spec);
    PartitionPlan plan = buildPartitionPlan(rs, 4, false);
    expectPlanCoversSpec(plan, rs);
    std::vector<std::string> serialNames;
    for (int32_t mi : plan.serialUpdates)
        serialNames.emplace_back(rs.name(rs.mems[mi].name));
    EXPECT_EQ(serialNames,
              (std::vector<std::string>{"in", "out"}));
}

TEST(PartitionPlan, TracedMemoriesGoSerialOnlyWhenTracing)
{
    // opn constant 5 = write + trace-write flag.
    std::string spec = "# t\n= 4\n"
                       "v m .\n"
                       "A v 4 m.0.7 1\n"
                       "M m 0 v 5 1\n"
                       ".\n";
    ResolvedSpec rs = resolveText(spec);
    PartitionPlan traced = buildPartitionPlan(rs, 2, true);
    EXPECT_EQ(traced.serialUpdates.size(), 1u);
    PartitionPlan untraced = buildPartitionPlan(rs, 2, false);
    EXPECT_TRUE(untraced.serialUpdates.empty());
}

// ---------------------------------------------------------------------
// Facade wiring

TEST(PartitionFacade, AutoThresholdKeepsSmallSpecsSerial)
{
    SimulationOptions o;
    o.specText = chainsSpec(4); // ~12 comb comps, far below 256
    o.engine = "interp";
    o.partitions = 4;
    Simulation sim(o);
    EXPECT_EQ(dynamic_cast<PartitionedInterpreter *>(&sim.engine()),
              nullptr);

    o.partitionMinComponents = 1;
    Simulation forced(o);
    auto *pi = dynamic_cast<PartitionedInterpreter *>(&forced.engine());
    ASSERT_NE(pi, nullptr);
    EXPECT_EQ(pi->plan().lanes, 4u);
}

TEST(PartitionFacade, PartitionsRequireInterp)
{
    SimulationOptions o;
    o.specText = chainsSpec(4);
    o.engine = "vm";
    o.partitions = 2;
    EXPECT_THROW(Simulation sim(o), SimError);
}

TEST(PartitionFacade, CycleReportingMatchesSerial)
{
    SimulationOptions o;
    o.specText = chainsSpec(8);
    o.engine = "interp";
    o.partitions = 3;
    o.partitionMinComponents = 1;
    Simulation sim(o);
    ASSERT_NE(dynamic_cast<PartitionedInterpreter *>(&sim.engine()),
              nullptr);
    EXPECT_EQ(sim.cycle(), 0u);
    sim.step();
    EXPECT_EQ(sim.cycle(), 1u);
    sim.run(9);
    EXPECT_EQ(sim.cycle(), 10u);
    EXPECT_EQ(sim.stats().cycles, 10u);
    sim.reset();
    EXPECT_EQ(sim.cycle(), 0u);
}

TEST(PartitionFacade, MidRunSnapshotCrossesEngineShapes)
{
    // Serial 15 cycles -> snapshot -> restore into a partitioned
    // instance; both continue 15 more and stay byte-identical.
    std::string spec = chainsSpec(10);
    auto mk = [&](unsigned partitions, std::ostringstream &traceOs) {
        SimulationOptions o;
        o.specText = spec;
        o.engine = "interp";
        o.partitions = partitions;
        o.partitionMinComponents = 1;
        o.traceStream = &traceOs;
        return std::make_unique<Simulation>(o);
    };
    std::ostringstream traceA, traceB;
    auto serial = mk(1, traceA);
    auto part = mk(4, traceB);
    serial->run(15);
    part->restore(serial->snapshot());
    serial->run(15);
    part->run(15);
    EXPECT_EQ(serial->cycle(), part->cycle());
    EXPECT_EQ(encodeCheckpoint(serial->snapshot(), serial->specHash(),
                               "t"),
              encodeCheckpoint(part->snapshot(), part->specHash(),
                               "t"));
    // The partitioned trace is the serial trace's cycle-15 suffix.
    std::string full = traceA.str(), suffix = traceB.str();
    ASSERT_GE(full.size(), suffix.size());
    EXPECT_EQ(full.substr(full.size() - suffix.size()), suffix);
}

} // namespace
} // namespace asim

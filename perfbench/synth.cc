/**
 * @file
 * Workload `synth64k`: the layered scaling preset at 64,000
 * components (seeded by the benchmark seed), resolved once the way the
 * CLI does it, then run under vm, serial interp and interp at nproc
 * lanes. This is the workload where parse, resolve, bytecode compile,
 * the partition plan and the partitioned cycle loop do most of the
 * work. No native run: host-compiling megabytes of generated C++
 * would swamp it.
 *
 * Why 64k and not the 100k preset: the vm's bytecode holds
 * combinational slot numbers in 16 bits (sim/compiler.cc), so on a
 * design with more than 65,536 slots it silently computes wrong
 * values from cycle 1 on, and this workload's cross-engine gate would
 * fail on every run.
 */

#include <iostream>
#include <memory>

#include "analysis/resolve.hh"
#include "bench.hh"
#include "lang/parser.hh"
#include "machines/synthetic.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace perfbench {

using namespace asim;

namespace {

struct Leg
{
    std::string name;
    std::unique_ptr<Simulation> sim;
    std::vector<double> chunkSeconds;
};

/** Rounds of `chunk` cycles on every leg until `seconds` pass (or, when
 *  `rounds` is nonzero, exactly that many rounds). All legs end each
 *  round at the same cycle, where their checkpoints must agree byte
 *  for byte. Returns the rounds run. */
size_t
timedPhase(std::vector<Leg> &legs, uint64_t chunk, double seconds,
           size_t rounds, Report &report)
{
    size_t done = 0;
    const auto t0 = Clock::now();
    while (rounds ? done < rounds : secondsSince(t0) < seconds) {
        bool ran = true;
        for (auto &leg : legs) {
            try {
                const auto r0 = Clock::now();
                leg.sim->run(chunk);
                leg.chunkSeconds.push_back(secondsSince(r0));
            } catch (const SimError &e) {
                report.op(false, "synth " + leg.name + ": " + e.what());
                ran = false;
            }
        }
        ++done;
        if (!ran)
            break;
        // The lanes must reproduce serial interp byte for byte,
        // SimStats included; the vm must reach the same state.
        const bool same =
            fullCheckpoint(*legs[1].sim) == fullCheckpoint(*legs[2].sim) &&
            stateDigest(*legs[0].sim) == stateDigest(*legs[1].sim);
        report.op(same, "synth checkpoints diverge at cycle " +
                            std::to_string(legs[0].sim->cycle()));
    }
    return done;
}

double
rate(const Leg &leg, uint64_t chunk)
{
    const double s = median(leg.chunkSeconds);
    return s > 0 ? double(chunk) / s : 0;
}

/**
 * The untraced window: vm rounds back to back; returns their rate at
 * reference speed (see CalibratedRate). Serial interp cannot replay a
 * window in time, so afterwards both interps continue from the vm's
 * final state and all three run one more gated round.
 */
double
vmWindow(std::vector<Leg> &legs, uint64_t chunk, double seconds,
         Report &report)
{
    CalibratedRate rate;
    const auto t0 = Clock::now();
    try {
        while (secondsSince(t0) < seconds) {
            const auto r0 = Clock::now();
            legs[0].sim->run(chunk);
            rate.add(double(chunk), secondsSince(r0));
        }
        const EngineSnapshot end = legs[0].sim->snapshot();
        legs[1].sim->restore(end);
        legs[2].sim->restore(end);
        timedPhase(legs, chunk, 0, 1, report);
    } catch (const SimError &e) {
        report.op(false, std::string("synth vm window: ") + e.what());
    }
    return vmRate("synth64k", rate);
}

} // namespace

void
runSynth(const Args &args, Report &report)
{
    SyntheticOptions so = syntheticPreset(args.smoke ? "2000" : "64000");
    so.seed = static_cast<uint32_t>(args.seed);
    const std::string text = generateSyntheticText(so);
    const unsigned lanes = ThreadPool::hardwareThreads();
    std::cout << "synth64k: " << so.alus + so.selectors
              << " combinational components, seed " << so.seed << ", "
              << lanes << " lanes, " << text.size() << " bytes of spec\n";

    const std::string traceFile = args.outDir + "/trace-synth64k.json";
    if (args.trace && !startTrace(traceFile))
        throw SimError("cannot write " + traceFile);

    // Set-up runs once: on 64k components it takes tens of seconds,
    // nearly all of it the resolve's declaration checks.
    Layers layers;
    const SetupTimer setup;
    std::shared_ptr<const ResolvedSpec> rs;
    {
        Diagnostics diag;
        Spec spec;
        {
            Layers::Scope s(layers, "lang.parse");
            spec = parseSpec(text, &diag);
        }
        Layers::Scope s(layers, "analysis.resolve");
        rs = std::make_shared<const ResolvedSpec>(resolve(spec, &diag));
    }
    std::vector<Leg> legs(3);
    legs[0].name = "vm";
    legs[1].name = "interp";
    legs[2].name = "interp_lanes";
    for (auto &leg : legs) {
        SimulationOptions o;
        o.resolved = rs;
        o.engine = leg.name == "vm" ? "vm" : "interp";
        o.partitions = leg.name == "interp_lanes" ? lanes : 1;
        Layers::Scope s(layers, "sim.build");
        leg.sim = std::make_unique<Simulation>(o);
        leg.sim->reset();
    }
    report.metric("setup_s", setup.stop(), "s");

    const uint64_t chunk = 32;
    if (!args.trace) {
        // One gated round on every engine; then the window goes to the
        // vm.
        timedPhase(legs, chunk, 0, 1, report);
        report.metric("cycles_per_s.vm",
                      vmWindow(legs, chunk, args.seconds, report),
                      "cycles/s");
        return;
    }

    // ----- Traced run: every engine, round-robin, then layer probes
    // inside the trace.
    const auto phase0 = Clock::now();
    const size_t rounds =
        timedPhase(legs, chunk, args.seconds, 0, report);
    const double tracedWall = secondsSince(phase0);
    {
        Layers::Scope s(layers, "sim.compile");
        compileProgram(*rs, CompilerOptions{}, false);
    }
    {
        Layers::Scope s(layers, "sim.partition_plan");
        buildPartitionPlan(*rs, lanes, false);
    }
    for (auto &leg : legs) {
        report.metric("sim.run_s." + leg.name, median(leg.chunkSeconds),
                      "s");
        std::vector<double> resetUs, stepUs;
        for (int i = 0; i < 3; ++i) {
            auto t0 = Clock::now();
            leg.sim->reset();
            resetUs.push_back(secondsSince(t0) * 1e6);
            t0 = Clock::now();
            leg.sim->step();
            stepUs.push_back(secondsSince(t0) * 1e6);
        }
        report.metric("sim.reset_us." + leg.name, median(resetUs), "us");
        report.metric("sim.step_us." + leg.name, median(stepUs), "us");
        leg.sim->reset();
    }
    for (const char *h :
         {"partition.lane.comb_ns", "partition.lane.latch_ns",
          "partition.lane.update_ns", "partition.barrier_wait_ns",
          "partition.serial_tail_ns", "threadpool.task_latency_ns"})
        report.metric(h, registryHistogramMean(h), "ns");
    stopTrace();

    report.metric("lang.parse_s", layers.median("lang.parse"), "s");
    report.metric("analysis.resolve_s", layers.median("analysis.resolve"),
                  "s");
    report.metric("sim.compile_s", layers.median("sim.compile"), "s");
    report.metric("sim.partition_plan_s",
                  layers.median("sim.partition_plan"), "s");

    // ----- The same rounds again, untraced.
    for (auto &leg : legs)
        leg.chunkSeconds.clear();
    const auto untraced0 = Clock::now();
    timedPhase(legs, chunk, 0, rounds, report);
    report.metric("bench.trace_overhead",
                  tracedWall / secondsSince(untraced0), "ratio");
    report.metric("cycles_per_s.interp", rate(legs[1], chunk), "cycles/s");
    report.metric("cycles_per_s.interp_lanes", rate(legs[2], chunk),
                  "cycles/s");

    // Statistics over a fixed cycle count, so they are exact counts
    // fixed by the seed: every engine from reset, two gated rounds.
    for (auto &leg : legs)
        leg.sim->reset();
    timedPhase(legs, chunk, 0, 2, report);
    const SimStats &st = legs[1].sim->stats();
    report.op(sameStatsButAluEvals(legs[0].sim->stats(), st),
              "synth vm and interp statistics differ");
    reportSimStats(st, report);
}

} // namespace perfbench

/**
 * @file
 * Workload `campaign`: a seeded transient `toggle` fault campaign
 * (CampaignRunner) on the sieve machine under vm, horizon at the HALT
 * cycle, repeated with the same seed. This is the only workload where
 * batch fan-out, the thread pool and outcome classification run; its
 * checkpoint use is read-heavy (one golden restore per injection).
 *
 * The untraced window runs one single-threaded campaign replica per
 * vCPU, each timed against the host-speed kernel beside it (see
 * CalibratedRate), and reads the best of them: a campaign spread over
 * every vCPU reads how many vCPUs co-tenants leave free at the moment,
 * which drifted by a third between two sets of runs on a shared host,
 * and a single-threaded kernel cannot see that. The traced run drives
 * one campaign across nproc pool threads.
 */

#include <iostream>
#include <sstream>
#include <thread>

#include "analysis/campaign.hh"
#include "bench.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace perfbench {

using namespace asim;

namespace {

/** What one stream of campaigns measured. */
struct Samples
{
    std::vector<double> injectionsPerS; ///< per campaign
    /// Instance cycles per run() wall second.
    CalibratedRate cycles;
    Layers layers;               ///< the spec loads, as spans
    std::vector<double> setups;  ///< the spec loads at reference speed
    Report report;
};

/** The set-up this workload times: the spec load alone, as the CLI
 *  does it (the runner compiles inside run(), which the window
 *  covers). */
std::shared_ptr<const ResolvedSpec>
loadSpec(const std::string &text, Layers &layers)
{
    SimulationOptions o;
    o.specText = text;
    Diagnostics diag;
    Layers::Scope s(layers, "sim.load_spec");
    return std::make_shared<const ResolvedSpec>(
        Simulation::loadSpec(o, &diag));
}

/** Run campaigns until `seconds` pass (or exactly `count` of them);
 *  every report must equal `reference` byte for byte. A spec load
 *  precedes each campaign, so the set-up samples spread over the
 *  whole run. Returns the campaigns run. */
size_t
timedPhase(const CampaignOptions &opts, const std::string &reference,
           const std::string &specText, double seconds, size_t count,
           Samples &out)
{
    size_t done = 0;
    const auto t0 = Clock::now();
    while (count ? done < count : secondsSince(t0) < seconds) {
        ++done;
        const SetupTimer setup;
        loadSpec(specText, out.layers);
        out.setups.push_back(setup.stop());
        try {
            const auto r0 = Clock::now();
            const CampaignResult result = CampaignRunner(opts).run();
            const double wall = secondsSince(r0);
            // Instances start from the golden checkpoint: count only
            // the cycles each one executed past it.
            uint64_t cycles = 0;
            for (const CampaignRecord &rec : result.records)
                if (rec.cyclesRun > result.goldenCycle)
                    cycles += rec.cyclesRun - result.goldenCycle;
            out.injectionsPerS.push_back(double(opts.runs) / wall);
            out.cycles.add(double(cycles), wall);
            out.report.op(result.json() == reference &&
                              result.total.injections == opts.runs,
                          "campaign report differs across reruns");
        } catch (const SimError &e) {
            out.report.op(false, std::string("campaign: ") + e.what());
        }
    }
    return done;
}

/** The untraced window: single-threaded campaign replicas, one per
 *  vCPU, each with its own golden-checkpoint directory. Reports the
 *  best replica's rate and the median set-up of all of them, at
 *  reference speed. */
void
replicaWindow(const CampaignOptions &opts, const std::string &reference,
              const std::string &specText, double seconds, Report &report)
{
    const unsigned n = ThreadPool::hardwareThreads();
    std::vector<Samples> replicas(n);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            CampaignOptions o = opts;
            o.threads = 1;
            o.workDir = opts.workDir + "/r" + std::to_string(i);
            try {
                timedPhase(o, reference, specText, seconds, 0, replicas[i]);
            } catch (const std::exception &e) {
                replicas[i].report.op(false,
                                      std::string("campaign: ") + e.what());
            }
        });
    }
    std::vector<double> setups;
    size_t best = 0;
    for (unsigned i = 0; i < n; ++i) {
        threads[i].join();
        report.merge(replicas[i].report);
        setups.insert(setups.end(), replicas[i].setups.begin(),
                      replicas[i].setups.end());
        if (replicas[i].cycles.rate() > replicas[best].cycles.rate())
            best = i;
    }
    report.metric("cycles_per_s.vm", vmRate("campaign", replicas[best].cycles),
                  "cycles/s");
    report.metric("setup_s", median(setups), "s");
}

} // namespace

void
runCampaign(const Args &args, Report &report)
{
    const SieveMachine m = makeSieve(
        args.smoke ? 10 + int(args.seed % 5) : sieveSizeForSeed(args.seed));
    const unsigned threads = ThreadPool::hardwareThreads();
    std::cout << "campaign: sieve size " << m.size << ", horizon "
              << m.haltCycle << ", " << threads << " threads\n";

    const std::string traceFile = args.outDir + "/trace-campaign.json";
    if (args.trace && !startTrace(traceFile))
        throw SimError("cannot write " + traceFile);

    Layers first;
    CampaignOptions opts;
    opts.base.resolved = loadSpec(m.specText, first);
    opts.base.engine = "vm";
    opts.runs = args.smoke ? 64 : 512;
    opts.seed = args.seed;
    opts.horizon = m.haltCycle;
    opts.injector = "toggle";
    opts.threads = threads;
    opts.workDir = args.outDir + "/campaign";
    // Reports are byte-identical across thread counts: every replica,
    // single-threaded, must reproduce this nproc-thread one.
    const std::string reference = CampaignRunner(opts).run().json();
    if (!args.trace) {
        replicaWindow(opts, reference, m.specText, args.seconds, report);
        return;
    }

    // ----- Traced run: one campaign at a time across nproc threads.
    Samples window;
    const auto phase0 = Clock::now();
    const size_t campaigns =
        timedPhase(opts, reference, m.specText, args.seconds, 0, window);
    const double windowWall = secondsSince(phase0);
    const double n = double(campaigns + 1); // + the reference run
    report.metric("batch.instances",
                  registryCounter("batch.instances") / n, "count");
    report.metric("batch.instances_faulted",
                  registryCounter("batch.instances_faulted") / n, "count");
    report.metric("threadpool.queue_depth",
                  registryGaugePeak("threadpool.queue_depth"), "count");
    {
        // The checkpoint layer each injection's golden restore goes
        // through, on the campaign's machine.
        std::ostringstream io;
        SimulationOptions o;
        o.resolved = opts.base.resolved;
        o.engine = "vm";
        o.ioMode = IoMode::Script;
        o.ioOut = &io;
        Simulation vm(o);
        checkpointProbe(vm, nullptr, m.haltCycle / 2, report);
    }
    stopTrace();
    for (const char *span :
         {"campaign.golden", "campaign.fanout", "campaign.classify"})
        report.metric(span, spanTotalSeconds(traceFile, span) / n, "s");

    // ----- The same campaigns again, untraced.
    Samples plain;
    const auto untraced0 = Clock::now();
    timedPhase(opts, reference, m.specText, 0, campaigns, plain);
    report.metric("bench.trace_overhead",
                  windowWall / secondsSince(untraced0), "ratio");
    report.metric("injections_per_s", median(plain.injectionsPerS),
                  "injections/s");
    report.merge(window.report);
    report.merge(plain.report);
}

} // namespace perfbench

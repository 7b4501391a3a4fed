/**
 * @file
 * Workload `sieve`: the thesis Appendix D stack machine runs the sieve
 * to a verified HALT, over and over, under interp, vm and native, plus
 * a vm pass rendering the thesis trace and a watchpoint pass
 * (runUntilValue("state", HALT)) under vm and native. The spec is
 * small, so the engine cycle loops, the trace sink and the native pipe
 * edges do the work. Every timed cycle is a cycle before HALT.
 */

#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/resolve.hh"
#include "bench.hh"
#include "lang/parser.hh"
#include "machines/stack_machine.hh"
#include "sim/compiler.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace perfbench {

using namespace asim;

namespace {

/** One kind of pass over the sieve. */
struct Leg
{
    std::string name;        ///< metric suffix and log label
    Simulation *sim = nullptr;
    bool watch = false;      ///< step to HALT through runUntilValue
    bool inProcess = true;   ///< full checkpoint comparable with vm
    std::ostringstream *io = nullptr;
    std::ostringstream *trace = nullptr; ///< set: renders the trace

    std::vector<double> passSeconds; ///< run/watch time per pass
    std::vector<double> resetSeconds;
    std::string firstTrace;
};

/** Every engine one sieve run uses, built from one resolve. */
struct Rig
{
    std::shared_ptr<const ResolvedSpec> rs;
    std::ostringstream interpIo, vmIo, nativeIo, tracedIo, traceText,
        nullIo;
    NullTrace nullSink;
    std::unique_ptr<Simulation> interp, vm, native, vmTraced, vmNull;
};

SimulationOptions
legOptions(const Rig &rig, const std::string &engine, std::ostream *io)
{
    SimulationOptions o;
    o.resolved = rig.rs;
    o.engine = engine;
    o.ioMode = IoMode::Script;
    o.ioOut = io;
    return o;
}

/**
 * Set up a rig the way a user pays for it: parse + resolve with a
 * Diagnostics, then construct and reset every engine from the shared
 * resolve. The native engine generates and host-compiles into a fresh
 * directory, so no build is reused. In a traced run the parse and the
 * resolve are timed as separate layers.
 */
std::unique_ptr<Rig>
buildRig(const SieveMachine &m, const std::string &nativeDir,
         bool withNullTrace, Layers &layers)
{
    auto rig = std::make_unique<Rig>();
    Diagnostics diag;
    {
        Spec spec;
        {
            Layers::Scope s(layers, "lang.parse");
            spec = parseSpec(m.specText, &diag);
        }
        Layers::Scope s(layers, "analysis.resolve");
        rig->rs = std::make_shared<const ResolvedSpec>(
            resolve(spec, &diag));
    }
    {
        Layers::Scope s(layers, "sim.build.interp");
        rig->interp = std::make_unique<Simulation>(
            legOptions(*rig, "interp", &rig->interpIo));
        rig->interp->reset();
    }
    {
        Layers::Scope s(layers, "sim.build.vm");
        rig->vm = std::make_unique<Simulation>(
            legOptions(*rig, "vm", &rig->vmIo));
        rig->vm->reset();
        SimulationOptions t = legOptions(*rig, "vm", &rig->tracedIo);
        t.traceStream = &rig->traceText;
        rig->vmTraced = std::make_unique<Simulation>(t);
        rig->vmTraced->reset();
        if (withNullTrace) {
            SimulationOptions n = legOptions(*rig, "vm", &rig->nullIo);
            n.config.trace = &rig->nullSink;
            rig->vmNull = std::make_unique<Simulation>(n);
            rig->vmNull->reset();
        }
    }
    {
        Layers::Scope s(layers, "sim.build.native");
        std::filesystem::create_directories(nativeDir);
        SimulationOptions o = legOptions(*rig, "native", &rig->nativeIo);
        o.workDir = nativeDir;
        rig->native = std::make_unique<Simulation>(o);
        rig->native->reset(); // spawns the serve child
    }
    return rig;
}

std::vector<Leg>
makeLegs(Rig &rig)
{
    std::vector<Leg> legs;
    auto add = [&](const char *name, Simulation *sim,
                   std::ostringstream *io, bool watch,
                   std::ostringstream *trace = nullptr) {
        Leg leg;
        leg.name = name;
        leg.sim = sim;
        leg.io = io;
        leg.watch = watch;
        leg.inProcess = sim != rig.native.get();
        leg.trace = trace;
        legs.push_back(std::move(leg));
    };
    add("interp", rig.interp.get(), &rig.interpIo, false);
    add("vm", rig.vm.get(), &rig.vmIo, false);
    add("native", rig.native.get(), &rig.nativeIo, false);
    add("vm_traced", rig.vmTraced.get(), &rig.tracedIo, false,
        &rig.traceText);
    add("watch_vm", rig.vm.get(), &rig.vmIo, true);
    add("watch_native", rig.native.get(), &rig.nativeIo, true);
    if (rig.vmNull)
        add("vm_null", rig.vmNull.get(), &rig.nullIo, false);
    return legs;
}

struct Reference
{
    std::string digest;     ///< state + cycle at HALT
    std::string checkpoint; ///< full in-process checkpoint at HALT
};

/** One pass: reset, run to HALT, check. Returns the pass's own
 *  wall time (all of it), so callers can share out a time budget. */
double
runPass(Leg &leg, const SieveMachine &m, const Reference &ref,
        Report &report)
{
    const auto t0 = Clock::now();
    try {
        leg.io->str("");
        if (leg.trace)
            leg.trace->str("");
        const auto r0 = Clock::now();
        leg.sim->reset();
        const auto r1 = Clock::now();
        uint64_t ran = m.haltCycle;
        if (leg.watch)
            ran = leg.sim->runUntilValue("state", kStackHaltState,
                                         m.haltCycle + 1);
        else
            leg.sim->run(m.haltCycle);
        const auto r2 = Clock::now();
        leg.resetSeconds.push_back(secondsBetween(r0, r1));
        leg.passSeconds.push_back(secondsBetween(r1, r2));

        bool ok = ran == m.haltCycle &&
                  leg.sim->value("state") == kStackHaltState &&
                  leg.io->str() == m.expected &&
                  stateDigest(*leg.sim) == ref.digest;
        if (ok && leg.inProcess)
            ok = fullCheckpoint(*leg.sim) == ref.checkpoint;
        if (ok && leg.trace) {
            if (leg.firstTrace.empty())
                leg.firstTrace = leg.trace->str();
            ok = !leg.firstTrace.empty() &&
                 leg.trace->str() == leg.firstTrace;
        }
        report.op(ok, "sieve " + leg.name + " pass diverged");
    } catch (const SimError &e) {
        report.op(false, "sieve " + leg.name + ": " + e.what());
    }
    return secondsSince(t0);
}

/** Round-robin the legs, each taking about `slice` seconds per round,
 *  until `seconds` have passed. Returns passes run per leg. */
std::vector<size_t>
timedPhase(std::vector<Leg> &legs, const SieveMachine &m,
           const Reference &ref, double seconds, double slice,
           Report &report)
{
    std::vector<size_t> passes(legs.size(), 0);
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        for (size_t i = 0; i < legs.size(); ++i) {
            double spent = 0;
            do {
                spent += runPass(legs[i], m, ref, report);
                ++passes[i];
            } while (spent < slice);
        }
    }
    return passes;
}

/**
 * The untraced window: one vm replica per vCPU, each running gated
 * passes back to back on its own thread. Returns the best replica's
 * rate at reference speed (see CalibratedRate).
 */
double
vmWindow(const Rig &rig, const SieveMachine &m, const Reference &ref,
         double seconds, Report &report)
{
    const unsigned n = ThreadPool::hardwareThreads();
    std::vector<std::ostringstream> io(n);
    std::vector<std::unique_ptr<Simulation>> sims;
    std::vector<Leg> legs(n);
    std::vector<CalibratedRate> rates(n);
    std::vector<Report> reports(n);
    for (unsigned i = 0; i < n; ++i) {
        sims.push_back(
            std::make_unique<Simulation>(legOptions(rig, "vm", &io[i])));
        legs[i].name = "vm";
        legs[i].sim = sims[i].get();
        legs[i].io = &io[i];
    }
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                while (secondsSince(t0) < seconds) {
                    const size_t timed = legs[i].passSeconds.size();
                    runPass(legs[i], m, ref, reports[i]);
                    if (legs[i].passSeconds.size() > timed)
                        rates[i].add(double(m.haltCycle),
                                     legs[i].passSeconds.back());
                }
            } catch (const std::exception &e) {
                reports[i].op(false, std::string("sieve vm: ") + e.what());
            }
        });
    }
    size_t best = 0;
    for (unsigned i = 0; i < n; ++i) {
        threads[i].join();
        report.merge(reports[i]);
        if (rates[i].rate() > rates[best].rate())
            best = i;
    }
    return vmRate("sieve", rates[best]);
}

/** Cycles per second of the median pass. */
double
rate(const Leg &leg, const SieveMachine &m)
{
    const double s = median(leg.passSeconds);
    return s > 0 ? double(m.haltCycle) / s : 0;
}

Leg &
legNamed(std::vector<Leg> &legs, const std::string &name)
{
    for (auto &l : legs)
        if (l.name == name)
            return l;
    throw SimError("no leg " + name);
}

void
stepProbe(Simulation &sim, int n, const std::string &engine,
          Report &report)
{
    sim.reset();
    report.metric("sim.step_us." + engine,
                  medianUs(n, [&] { sim.step(); }), "us");
}

} // namespace

void
runSieve(const Args &args, Report &report)
{
    const SieveMachine m = makeSieve(
        args.smoke ? 10 + int(args.seed % 5) : sieveSizeForSeed(args.seed));
    std::cout << "sieve: size " << m.size << ", HALT at cycle "
              << m.haltCycle << "\n";

    const std::string traceFile = args.outDir + "/trace-sieve.json";
    if (args.trace && !startTrace(traceFile))
        throw SimError("cannot write " + traceFile);

    // Set-up: the median of several, each a fresh resolve and a fresh
    // native build; the last rig serves the timed phase.
    Layers layers;
    std::unique_ptr<Rig> rig;
    std::vector<double> setups;
    const int setupReps = args.trace || args.smoke ? 1 : 5;
    for (int i = 0; i < setupReps; ++i) {
        rig.reset();
        const std::string dir =
            args.outDir + "/native-" + std::to_string(i);
        std::filesystem::remove_all(dir);
        const SetupTimer setup;
        rig = buildRig(m, dir, args.trace, layers);
        setups.push_back(setup.stop());
    }
    report.metric("setup_s", median(setups), "s");

    Reference ref;
    {
        rig->vm->reset();
        rig->vm->run(m.haltCycle);
        ref.digest = stateDigest(*rig->vm);
        ref.checkpoint = fullCheckpoint(*rig->vm);
    }

    std::vector<Leg> legs = makeLegs(*rig);
    if (!args.trace) {
        // Every leg passes its gates once; then the window goes to
        // back-to-back vm passes.
        for (auto &leg : legs)
            runPass(leg, m, ref, report);
        report.metric("cycles_per_s.vm",
                      vmWindow(*rig, m, ref, args.seconds, report),
                      "cycles/s");
        return;
    }

    // ----- Traced run: every leg, round-robin. A native watchpoint
    // pass takes seconds (two pipe round trips per cycle); the other
    // legs get a slice of comparable weight per round so each collects
    // many passes.
    const auto phase0 = Clock::now();
    std::vector<size_t> passes =
        timedPhase(legs, m, ref, args.seconds, args.seconds / 40, report);
    const double tracedWall = secondsSince(phase0);
    for (const char *e : {"interp", "vm", "native"}) {
        Leg &leg = legNamed(legs, e);
        report.metric(std::string("sim.run_s.") + e,
                      median(leg.passSeconds), "s");
        report.metric(std::string("sim.reset_us.") + e,
                      median(leg.resetSeconds) * 1e6, "us");
    }

    // Layer probes inside the trace. The trace sink's cost: untraced,
    // NullTrace and StreamTrace vm passes back to back, so host drift
    // cancels in each difference.
    {
        Leg &plain = legNamed(legs, "vm");
        Leg &null = legNamed(legs, "vm_null");
        Leg &traced = legNamed(legs, "vm_traced");
        std::vector<double> emit, format;
        for (int i = 0; i < 100; ++i) {
            runPass(plain, m, ref, report);
            runPass(null, m, ref, report);
            runPass(traced, m, ref, report);
            emit.push_back(null.passSeconds.back() -
                           plain.passSeconds.back());
            format.push_back(traced.passSeconds.back() -
                             null.passSeconds.back());
        }
        report.metric("sim.trace.emit_s", median(emit), "s");
        report.metric("sim.trace.format_s", median(format), "s");
    }
    {
        Layers::Scope s(layers, "sim.compile");
        compileProgram(*rig->rs, CompilerOptions{}, false);
    }
    codegenProbe(*rig->rs, args.outDir + "/native-probe", layers, report);
    stepProbe(*rig->interp, 2000, "interp", report);
    stepProbe(*rig->vm, 2000, "vm", report);
    stepProbe(*rig->native, 200, "native", report);
    checkpointProbe(*rig->vm, rig->native.get(), m.haltCycle / 2, report);
    {
        // Pipe commands of one native pass and one native watchpoint
        // pass to HALT: a count fixed by the seed, unlike the
        // process total, which grows with the passes a window fits.
        const double c0 = registryCounter("native.commands");
        runPass(legNamed(legs, "native"), m, ref, report);
        runPass(legNamed(legs, "watch_native"), m, ref, report);
        report.metric("native.commands",
                      registryCounter("native.commands") - c0, "count");
    }
    report.metric("native.roundtrip_ns",
                  registryHistogramMean("native.roundtrip_ns"), "ns");
    stopTrace();

    // Layer figures from the traced phase.
    report.metric("lang.parse_s", layers.median("lang.parse"), "s");
    report.metric("analysis.resolve_s", layers.median("analysis.resolve"),
                  "s");
    report.metric("sim.compile_s", layers.median("sim.compile"), "s");
    report.metric("sim.trace.bytes",
                  double(legNamed(legs, "vm_traced").firstTrace.size()),
                  "bytes");
    report.metric("sim.halt_cycle", double(m.haltCycle), "cycles");
    rig->vm->reset();
    rig->vm->run(m.haltCycle);
    reportSimStats(rig->vm->stats(), report);

    // ----- The same passes again, untraced: the workload's own
    // throughput figures and the tracing overhead.
    for (auto &leg : legs) {
        leg.passSeconds.clear();
        leg.resetSeconds.clear();
    }
    const auto untraced0 = Clock::now();
    for (size_t i = 0; i < legs.size(); ++i)
        for (size_t k = 0; k < passes[i]; ++k)
            runPass(legs[i], m, ref, report);
    report.metric("bench.trace_overhead",
                  tracedWall / secondsSince(untraced0), "ratio");
    report.metric("cycles_per_s.interp", rate(legNamed(legs, "interp"), m),
                  "cycles/s");
    report.metric("cycles_per_s.native", rate(legNamed(legs, "native"), m),
                  "cycles/s");
    report.metric("traced_cycles_per_s.vm",
                  rate(legNamed(legs, "vm_traced"), m), "cycles/s");
    report.metric("watch_cycles_per_s.vm",
                  rate(legNamed(legs, "watch_vm"), m), "cycles/s");
    report.metric("watch_cycles_per_s.native",
                  rate(legNamed(legs, "watch_native"), m), "cycles/s");
}

} // namespace perfbench

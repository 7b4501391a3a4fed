#include "sim/simulation.hh"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "analysis/campaign.hh"
#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/io.hh"
#include "sim/native_engine.hh"
#include "sim/partition.hh"
#include "sim/symbolic.hh"
#include "sim/trace.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace asim {

// SimulationOptions repeats the threshold as a literal default (256)
// to keep this header out of simulation.hh; catch drift here.
static_assert(kPartitionAutoThreshold == 256);

namespace {

int
sourceCount(const SimulationOptions &opts)
{
    return (opts.specFile.empty() ? 0 : 1) +
           (opts.specText.empty() ? 0 : 1) + (opts.resolved ? 1 : 0);
}

/** The options' healthy spec with the splice fault `site` applied.
 *  Off a shared resolve the healthy tree is the shared symbolic tree
 *  when there is one, else a re-parse of the canonical text. */
Spec
splicedSpec(const SimulationOptions &opts, const FaultSite &site,
            Diagnostics *diag)
{
    if (opts.resolved && opts.ast)
        return spliceFault(*opts.ast, site);
    return spliceFault(opts.resolved
                           ? opts.resolved->ast()
                           : (!opts.specFile.empty()
                                  ? parseSpecFile(opts.specFile, diag)
                                  : parseSpec(opts.specText, diag)),
                       site);
}

/** @throws SimError naming the engines when no row of kEngines is
 *  `name` */
void
requireEngine(std::string_view name)
{
    std::string known;
    for (const EngineInfo &e : kEngines) {
        if (e.name == name)
            return;
        known.append(known.empty() ? "" : ", ").append(e.name);
    }
    throw SimError("unknown engine <" + std::string(name) +
                   ">; registered engines: " + known);
}

/** The engine `opts.engine` names (a row checkOptions vetted), on
 *  `rs` with `cfg`. It adopts the options' shared artifacts only when
 *  `shared`: artifacts compiled from the healthy spec do not match a
 *  spliced one, whose engine builds its own. */
std::unique_ptr<Engine>
buildEngine(const SimulationOptions &opts,
            const std::shared_ptr<const ResolvedSpec> &rs,
            const EngineConfig &cfg, bool shared)
{
    const std::string &name = opts.engine;
    if (name == "interp") {
        if (opts.partitions >= 2 &&
            rs->comb.size() >= opts.partitionMinComponents)
            return makePartitionedInterpreter(rs, cfg, opts.partitions);
        return makeInterpreter(rs, cfg);
    }
    if (name == "native") {
        return std::make_unique<NativeEngine>(
            rs, cfg,
            NativeEngine::Options{opts.workDir,
                                  shared ? opts.nativeBuild : nullptr});
    }
    if (name == "symbolic")
        return makeSymbolicInterpreter(rs, cfg,
                                       shared ? opts.ast : nullptr);
    if (shared && opts.program)
        return makeVm(rs, cfg, opts.program);
    return makeVm(rs, cfg);
}

} // namespace

void
Simulation::checkOptions(const SimulationOptions &opts,
                         const ResolvedSpec *rs)
{
    if (!opts.fault.empty()) {
        const FaultSite site = parseFaultSite(opts.fault);
        if (site.atCycle && rs)
            validateFaultSite(*rs, site);
    }
    requireEngine(opts.engine);
    if (opts.partitions >= 2 && opts.engine != "interp") {
        throw SimError("engine <" + opts.engine +
                       "> does not support partitioned execution; "
                       "partitions require the interp engine");
    }
}

ResolvedSpec
Simulation::loadSpec(const SimulationOptions &opts, Diagnostics *diag)
{
    if (sourceCount(opts) != 1) {
        throw SimError("exactly one of specFile, specText, or "
                       "resolved must be set");
    }

    // A splice fault changes the specification itself: parse the
    // healthy spec, splice, and resolve the result. @cycle faults
    // leave the spec untouched (validated against the resolve).
    if (!opts.fault.empty()) {
        FaultSite site = parseFaultSite(opts.fault);
        if (!site.atCycle)
            return resolve(splicedSpec(opts, site, diag), diag);
        ResolvedSpec rs =
            opts.resolved
                ? *opts.resolved
                : (!opts.specFile.empty()
                       ? resolve(parseSpecFile(opts.specFile, diag),
                                 diag)
                       : resolveText(opts.specText, diag));
        validateFaultSite(rs, site);
        return rs;
    }

    if (opts.resolved)
        return *opts.resolved;
    if (!opts.specFile.empty())
        return resolve(parseSpecFile(opts.specFile, diag), diag);
    return resolveText(opts.specText, diag);
}

std::vector<int32_t>
Simulation::loadScript(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SimError("cannot read script file " + path);
    std::vector<int32_t> values;
    std::string token;
    while (in >> token) {
        if (token[0] == '#') {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        size_t used = 0;
        long long v = 0;
        try {
            v = std::stoll(token, &used, 0);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != token.size()) {
            throw SimError("script file " + path +
                           ": not an integer: " + token);
        }
        if (v < INT32_MIN || v > INT32_MAX) {
            throw SimError("script file " + path +
                           ": value out of 32-bit range: " + token);
        }
        values.push_back(static_cast<int32_t>(v));
    }
    return values;
}

Simulation::Simulation(const SimulationOptions &opts)
    : engineName_(opts.engine)
{
    if (sourceCount(opts) != 1) {
        throw SimError("exactly one of specFile, specText, or "
                       "resolved must be set");
    }
    if (!opts.fault.empty()) {
        fault_ = parseFaultSite(opts.fault);
        hasFault_ = fault_.atCycle;
    }
    // A splice fault re-resolves even off a shared resolve: the
    // shared spec stays healthy, this instance gets the spliced one.
    const bool spliced = !opts.fault.empty() && !hasFault_;
    if (opts.resolved && !spliced) {
        rs_ = opts.resolved;
    } else {
        tracing::Span span("sim.parse_resolve", "lifecycle");
        rs_ = std::make_shared<const ResolvedSpec>(loadSpec(opts, &diag_));
        if (span.active())
            span.setArgs("\"components\":" +
                         std::to_string(rs_->comb.size()));
    }
    checkOptions(opts, rs_.get());
    faultArmed_ = hasFault_;

    EngineConfig cfg = opts.config;
    std::ostream *out = opts.ioOut ? opts.ioOut : &std::cout;

    if (!cfg.io) {
        switch (opts.ioMode) {
          case IoMode::Null:
            break;
          case IoMode::Interactive: {
            std::istream *in = opts.ioIn ? opts.ioIn : &std::cin;
            ownedIo_ = std::make_unique<StreamIo>(*in, *out);
            break;
          }
          case IoMode::Script:
            ownedIo_ =
                std::make_unique<ScriptIo>(opts.scriptInputs, *out);
            break;
        }
        cfg.io = ownedIo_.get();
    }

    if (!cfg.trace && opts.traceStream) {
        ownedTrace_ = std::make_unique<StreamTrace>(*opts.traceStream);
        cfg.trace = ownedTrace_.get();
    }

    {
        // Covers engine-local compilation: bytecode for the vm,
        // generate+host-compile+load for native (unless shared
        // artifacts were prebuilt), partition planning for lanes >= 2.
        tracing::Span span("sim.build_engine", "lifecycle");
        if (span.active())
            span.setArgs("\"engine\":\"" + engineName_ + "\"");
        engine_ = buildEngine(opts, rs_, cfg, !spliced);
    }
    metrics::counter("sim.engines_built." + engineName_).add();
}

SimulationOptions
Simulation::shareBatchArtifacts(const SimulationOptions &opts,
                                bool forceTracingPossible)
{
    SimulationOptions shared = opts;
    const bool spliced =
        !shared.fault.empty() &&
        !parseFaultSite(shared.fault).atCycle;
    if (spliced) {
        // Bake the splice into the shared resolve once (loadSpec
        // applies it) so every instance shares the spliced spec and
        // artifacts instead of re-splicing per instance.
        shared.resolved =
            std::make_shared<const ResolvedSpec>(loadSpec(opts));
        shared.specFile.clear();
        shared.specText.clear();
        shared.fault.clear();
    } else if (!shared.resolved) {
        shared.resolved =
            std::make_shared<const ResolvedSpec>(loadSpec(opts));
        shared.specFile.clear();
        shared.specText.clear();
    }
    // Compile the expensive per-engine artifact once; every instance
    // shares it immutably. Trace checks / trace output are kept
    // whenever any trace wiring exists (or the caller promises to
    // attach a sink later), so shared artifacts behave identically
    // to per-instance compiles.
    const bool tracingPossible = forceTracingPossible ||
                                 shared.config.trace != nullptr ||
                                 shared.traceStream != nullptr;
    if (shared.engine == "vm" && !shared.program) {
        tracing::Span span("sim.compile.vm", "lifecycle");
        shared.program = std::make_shared<const Program>(
            compileProgram(*shared.resolved, {}, tracingPossible));
    }
    if (shared.engine == "symbolic" && !shared.ast) {
        tracing::Span span("sim.parse.symbolic", "lifecycle");
        shared.ast = std::make_shared<const Spec>(shared.resolved->ast());
    }
    if (shared.engine == "native" && !shared.nativeBuild) {
        // One generated, host-compiled and loaded library for the
        // whole batch; every instance runs off it. Routed through the
        // cross-job build cache (unless an explicit workDir pins the
        // artifacts), so repeated batches of the same machine also
        // share one compile.
        tracing::Span span("sim.compile.native", "lifecycle");
        shared.nativeBuild = NativeEngine::buildFor(
            *shared.resolved, shared.config.aluSemantics,
            tracingPossible, shared.workDir);
    }
    return shared;
}

uint64_t
Simulation::specHash() const
{
    return specIdentityHash(*rs_);
}

void
Simulation::saveCheckpoint(const std::string &path,
                           const CheckpointSections &sections) const
{
    asim::saveCheckpoint(*engine_, path, engineName_, sections);
}

void
Simulation::restoreCheckpoint(const std::string &path,
                              CheckpointSections *sections)
{
    restore(loadCheckpoint(path, *rs_, sections));
}

// ---------------------------------------------------------------------
// Run control + @cycle fault injection
// ---------------------------------------------------------------------

void
Simulation::reset()
{
    engine_->reset();
    faultArmed_ = hasFault_;
}

void
Simulation::step()
{
    injectPending();
    engine_->step();
}

void
Simulation::run(uint64_t cycles)
{
    tracing::Span span("sim.run", "lifecycle");
    if (span.active())
        span.setArgs("\"engine\":\"" + engineName_ +
                     "\",\"cycles\":" + std::to_string(cycles));
    const bool timed = metrics::timingEnabled();
    const uint64_t t0 = timed ? metrics::nowNs() : 0;
    const uint64_t startCycle = timed ? engine_->cycle() : 0;
    const uint64_t startAlu = timed ? engine_->stats().aluEvals : 0;
    const uint64_t startSel = timed ? engine_->stats().selEvals : 0;

    while (cycles > 0) {
        injectPending();
        uint64_t chunk = cycles;
        // Stop the engine chunk at the fault boundary so the
        // injection lands mid-run exactly where step()-ing would put
        // it.
        if (faultArmed_ && fault_.cycle > engine_->cycle())
            chunk = std::min(chunk, fault_.cycle - engine_->cycle());
        engine_->run(chunk);
        cycles -= chunk;
    }

    if (timed) {
        // Per-engine throughput and sampled hot-loop work counters:
        // the engines accumulate SimStats in locals and flush at run
        // exit, so the deltas here are one subtraction, not a
        // per-cycle tax.
        const SimStats &end = engine_->stats();
        metrics::counter("engine.cycles." + engineName_)
            .add(engine_->cycle() - startCycle);
        metrics::counter("engine.alu_evals." + engineName_)
            .add(end.aluEvals - startAlu);
        metrics::counter("engine.sel_evals." + engineName_)
            .add(end.selEvals - startSel);
        metrics::histogram("engine.run_ns." + engineName_,
                           metrics::Histogram::exponentialBounds(
                               1000, 4.0, 16))
            .record(metrics::nowNs() - t0);
    }
}

void
Simulation::restore(const EngineSnapshot &snap)
{
    engine_->restore(snap);
    // Restoring before the fault boundary re-arms the injection
    // (continuation replays it); restoring past it means the fault
    // already lives in the restored history.
    if (hasFault_)
        faultArmed_ = snap.cycle <= fault_.cycle;
}

void
Simulation::injectPending()
{
    if (!faultArmed_ || engine_->cycle() < fault_.cycle)
        return;
    injectFault(engine_->state(), *rs_, fault_);
    faultArmed_ = false;
}

int64_t
Simulation::defaultCycles() const
{
    return rs_->cyclesSpecified ? rs_->thesisIterations() : -1;
}

uint64_t
Simulation::runUntil(const Predicate &pred, uint64_t maxCycles)
{
    for (uint64_t n = 0; n < maxCycles;) {
        step();
        ++n;
        if (pred(*this))
            return n;
    }
    return maxCycles;
}

uint64_t
Simulation::runUntilValue(std::string_view name, int32_t value,
                          uint64_t maxCycles)
{
    // Resolved once, before the first step: a bad name throws with
    // cycle() unchanged.
    const int slot = rs_->valueSlot(name);
    if (slot < 0)
        throw unknownComponent(name);
    return runUntil(
        [&](const Simulation &sim) {
            return sim.engine().state().vars[slot] == value;
        },
        maxCycles);
}

} // namespace asim

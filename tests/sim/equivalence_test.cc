/** @file
 * Engine-equivalence property tests: the interpreter (ASIM analog) and
 * the bytecode VM (ASIM II analog) must produce identical traces,
 * identical I/O, and identical final state on randomly generated
 * specifications — the library's strongest correctness guarantee.
 * All engine runs are constructed as BatchRunner jobs (one per
 * engine or flag combination) sharing a single resolve, so the
 * harness doubles as a parallel-execution soak of the batch
 * subsystem (the native pipeline has its own leg in
 * native_equivalence_test.cc, gated on a host compiler).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "machines/tiny_computer.hh"
#include "sim/batch.hh"
#include "sim/checkpoint.hh"
#include "sim/io.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace asim {
namespace {

using SharedSpec = std::shared_ptr<const ResolvedSpec>;

SharedSpec
share(ResolvedSpec rs)
{
    return std::make_shared<const ResolvedSpec>(std::move(rs));
}

/** One engine/flag variant to run against the shared spec. */
struct Variant
{
    std::string engine;
    CompilerOptions compiler;
    std::string label;
    std::string fault = {}; ///< optional fault text (--inject form)
};

/**
 * Run every variant as one BatchRunner job off the shared resolve —
 * all instances concurrently — and return the per-variant results in
 * variant order. Each job owns its VectorIo (inputs are mirrored into
 * every instance) and captures its trace per-instance.
 */
std::vector<InstanceResult>
runVariants(const std::vector<Variant> &variants, const SharedSpec &rs,
            uint64_t cycles, const std::vector<int32_t> &inputs)
{
    std::vector<std::unique_ptr<VectorIo>> ios;
    BatchRunner runner;
    for (const Variant &v : variants) {
        auto io = std::make_unique<VectorIo>();
        for (int32_t value : inputs)
            io->pushInput(value);
        BatchJob job;
        job.options.resolved = rs;
        job.options.engine = v.engine;
        job.options.compiler = v.compiler;
        job.options.fault = v.fault;
        job.options.config.io = io.get();
        job.cycles = cycles;
        job.captureTrace = true;
        job.label = v.label.empty() ? v.engine : v.label;
        runner.addJob(std::move(job));
        ios.push_back(std::move(io));
    }

    BatchResult batch = runner.run();
    std::vector<InstanceResult> results =
        std::move(batch.instances);
    // VectorIo keeps the canonical thesis-format rendering.
    for (size_t i = 0; i < results.size(); ++i)
        results[i].ioText = ios[i]->text();
    return results;
}

void
expectEquivalent(const SharedSpec &rs, uint64_t cycles,
                 const std::vector<int32_t> &inputs = {})
{
    auto results = runVariants({{"interp", {}, ""},
                                {"vm", {}, ""},
                                {"symbolic", {}, ""}},
                               rs, cycles, inputs);
    const InstanceResult &a = results[0];
    for (size_t i = 1; i < results.size(); ++i) {
        const InstanceResult &b = results[i];
        EXPECT_EQ(a.faulted, b.faulted) << b.engine;
        if (a.faulted) {
            // Same diagnostic, modulo nothing: both name the
            // component.
            EXPECT_EQ(a.fault, b.fault) << b.engine;
        }
        EXPECT_EQ(a.traceText, b.traceText) << b.engine;
        EXPECT_EQ(a.ioText, b.ioText) << b.engine;
        EXPECT_TRUE(a.state == b.state)
            << "final state differs: " << b.engine;
    }
}

TEST(Equivalence, Counter)
{
    expectEquivalent(share(resolveText(counterSpec(6, 100))), 100);
}

TEST(Equivalence, TrafficLight)
{
    expectEquivalent(share(resolveText(trafficLightSpec(64))), 64);
}

TEST(Equivalence, TinyComputer)
{
    int result = 0;
    auto img = tinyModProgram(23, 7, result);
    expectEquivalent(share(resolveText(tinyComputerSpec(img, 400))),
                     400);
}

TEST(Equivalence, StackMachineSieve)
{
    expectEquivalent(
        share(resolveText(
            stackMachineSpec(sieveProgram(8), 6000, true))),
        6000);
}

/** The main property sweep: random specs across many seeds. */
class EquivalenceProperty : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(EquivalenceProperty, RandomSpec)
{
    SyntheticOptions opts;
    opts.seed = GetParam();
    opts.alus = 6 + GetParam() % 8;
    opts.selectors = 2 + GetParam() % 4;
    opts.memories = 1 + GetParam() % 4;
    SharedSpec rs = share(resolve(generateSynthetic(opts)));
    std::vector<int32_t> inputs;
    for (int i = 0; i < 256; ++i)
        inputs.push_back((i * 2654435761u) % 4096);
    expectEquivalent(rs, 200, inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Range(1u, 41u));

/** The layered scaling family (the benchmark's synth64k design at
 *  2000 components, on a seed no preset uses): the vm runs its
 *  levelized, shape-grouped comb schedule and must still leave the
 *  interpreter's checkpoint, statistics included, byte for byte at
 *  every cycle count. */
TEST(Equivalence, LayeredPresetCheckpoints)
{
    SyntheticOptions opts = syntheticPreset("2000");
    opts.seed = 4243;
    SharedSpec rs = share(resolve(generateSynthetic(opts)));
    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    uint64_t done = 0;
    for (uint64_t at : {1u, 2u, 17u, 64u, 300u}) {
        vm->run(at - done);
        interp->run(at - done);
        done = at;
        EXPECT_EQ(encodeCheckpoint(vm->snapshot(), 0, "engine"),
                  encodeCheckpoint(interp->snapshot(), 0, "engine"))
            << "cycle " << at;
    }
}

/** Optimization flags must never change behavior (VM vs VM). */
class OptEquivalence : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(OptEquivalence, AllFlagCombos)
{
    SyntheticOptions sopts;
    sopts.seed = GetParam() * 7919;
    SharedSpec rs = share(resolve(generateSynthetic(sopts)));

    std::vector<int32_t> inputs;
    for (int i = 0; i < 128; ++i)
        inputs.push_back(i * 37 % 1000);

    // All 16 flag combinations plus the reference run as one batch.
    // Bit 3 drops the whole cycle-stream optimizer (fusion,
    // dead-store elimination, check elision) so every compile-time
    // combination also runs against the unoptimized stream.
    std::vector<Variant> variants{{"vm", {}, "reference"}};
    for (int m = 0; m < 16; ++m) {
        CompilerOptions copts;
        copts.inlineConstAlu = m & 1;
        copts.specializeConstMem = m & 2;
        copts.constSelectorTables = m & 4;
        copts.fuseSuperinstructions = !(m & 8);
        copts.eliminateDeadStores = !(m & 8);
        copts.elideRedundantChecks = !(m & 8);
        variants.push_back(
            {"vm", copts, "flags" + std::to_string(m)});
    }
    auto results = runVariants(variants, rs, 100, inputs);
    std::string reference =
        results[0].traceText + "|" + results[0].ioText;
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].traceText + "|" + results[i].ioText,
                  reference)
            << results[i].label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalence,
                         ::testing::Range(1u, 11u));

/** Injected faults must corrupt every engine identically: a spec
 *  splice (permanent stuck bit) and a transient @cycle state upset
 *  each produce byte-identical traces, I/O, and final state across
 *  the in-process engines — and differ from the healthy run. */
TEST(Equivalence, InjectedFaultsMatchAcrossEngines)
{
    struct FaultCase
    {
        const char *fault;
        bool observable; ///< the counter never reads count's cell
                         ///< back, so a cell upset stays masked
    };
    SharedSpec rs = share(resolveText(counterSpec(6, 100)));
    for (const FaultCase &c :
         {FaultCase{"next:2:set1", true},
          FaultCase{"count:1:set0", true},
          FaultCase{"count:0:toggle@50", true},
          FaultCase{"count[0]:3:toggle@25", false}}) {
        const char *fault = c.fault;
        auto results = runVariants({{"interp", {}, "interp", fault},
                                    {"vm", {}, "vm", fault},
                                    {"symbolic", {}, "symbolic", fault},
                                    {"vm", {}, "healthy", ""}},
                                   rs, 100, {});
        const InstanceResult &a = results[0];
        EXPECT_FALSE(a.faulted) << fault << ": " << a.fault;
        for (size_t i = 1; i + 1 < results.size(); ++i) {
            const InstanceResult &b = results[i];
            EXPECT_EQ(a.traceText, b.traceText)
                << fault << " " << b.label;
            EXPECT_EQ(a.ioText, b.ioText) << fault << " " << b.label;
            EXPECT_TRUE(a.state == b.state)
                << fault << " " << b.label;
        }
        if (c.observable) {
            EXPECT_NE(a.traceText, results.back().traceText)
                << fault << " must be observable";
        } else {
            EXPECT_EQ(a.traceText, results.back().traceText)
                << fault << " must stay masked";
        }
    }
}

} // namespace
} // namespace asim

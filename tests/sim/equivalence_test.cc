/** @file
 * Engine-equivalence property tests: the interpreter (ASIM analog) and
 * the bytecode VM (ASIM II analog) must produce identical traces,
 * identical I/O, and identical final state on randomly generated
 * specifications — the library's strongest correctness guarantee.
 * All engine runs are constructed as BatchRunner jobs (one per
 * engine) sharing a single resolve, so the harness doubles as a
 * parallel-execution soak of the batch subsystem (the native pipeline
 * has its own leg in native_equivalence_test.cc, gated on a host
 * compiler).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "machines/tiny_computer.hh"
#include "sim/batch.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/io.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

using SharedSpec = std::shared_ptr<const ResolvedSpec>;

SharedSpec
share(ResolvedSpec rs)
{
    return std::make_shared<const ResolvedSpec>(std::move(rs));
}

/** One engine variant to run against the shared spec. */
struct Variant
{
    std::string engine;
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
    auto results = runVariants({{"interp", ""},
                                {"vm", ""},
                                {"symbolic", ""}},
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

/** Small machines for the opcode forms the corpus below rarely
 *  exercises: memories whose latch or data expressions mix a one-term
 *  span with a multi-term span, output memories with constant and
 *  multi-term data, a fold behind a barrier, and the adds and
 *  subtracts that become one span. `t` is a counting
 *  register memory whose output latch the others read; `c` and `d`
 *  are ALUs. */
const char *const kOpcodeSpecs[] = {
    // Constant and one-field addresses beside a two-term operation,
    // and a generic memory with two-term data.
    "# latches beside a two-term operation\n"
    "t* c d m1 m2 m3 .\n"
    "A c 4 t 1\n"
    "A d 10 t 5\n"
    "M m1 1 c.1.2,c.0.0 t.1.1,t.0.0 4\n"
    "M m2 c.0.1 d t.2.2,t.0.0 4\n"
    "M m3 t.0.1 c t.0.0,t.1.1 4\n"
    "M t 0 c 1 1\n"
    ".\n",
    // mem.out with two-term, constant and one-field data.
    "# output data shapes\n"
    "t* c o1 o2 o3 .\n"
    "A c 4 t 1\n"
    "M o1 0 c.1.2,c.0.0 3 1\n"
    "M o2 1 7 3 1\n"
    "M o3 2 c 3 1\n"
    "M t 0 c 1 1\n"
    ".\n",
    // A fold behind a selector that may fault (s1: index c.0.1
    // against 3 cases, c only ever 0 or 2), so it stays in the cycle
    // (alu.fold), and case tables on a two-term select (s2, K = 2)
    // and a one-field select (s3, K = 3).
    "# folds behind a barrier, case tables\n"
    "t* inc c s1 k0 s2 s3 .\n"
    "A inc 4 t 1\n"
    "A c 8 inc 2\n"
    "S s1 c.0.1 t c 5\n"
    "A k0 4 20 22\n"
    "S s2 t.0.0,c.1.1 c t.0.1,c.0.0 3 k0\n"
    "S s3 t.0.1 c.0.0,t.1.1,t.2.2 t 7 s2\n"
    "M t 0 inc 1 1\n"
    ".\n",
    // The add and subtract forms alu.mov takes: a constant plus a
    // two-term operand, two multi-term operands in one span, and a
    // field minus a constant (the negation joins the bias), beside a
    // constant minus a field, which stays alu.sub.
    "# adds and subtracts in one span\n"
    "t* c a1 a2 s1 s2 .\n"
    "A c 4 t 1\n"
    "A a1 4 3 t.0.1,c.2.2\n"
    "A a2 4 c.1.2,t.0.0 t.3.4,#1\n"
    "A s1 5 c 7\n"
    "A s2 5 7 c\n"
    "M t 0 c 1 1\n"
    ".\n",
};

/** Every vm handler runs: the opcodes that appear in `Program::cycle`
 *  over the corpus (the on-disk specs, the thesis machines and the
 *  synthetic presets) and the hand-written machines above are exactly
 *  the opcodes with a handler; each hand-written machine also runs vm
 *  against interp and symbolic. */
TEST(Vm, EveryLinkedOpcodeIsExercised)
{
    std::set<std::string> seen;
    const auto collect = [&seen](const ResolvedSpec &rs) {
        for (const Instr &in : compileProgram(rs).cycle)
            seen.insert(opName(in.op));
    };

    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() == ".asim")
            collect(resolve(parseSpecFile(entry.path().string())));
    }
    collect(resolveText(stackMachineSpec(sieveProgram(8), 6000)));
    collect(resolveText(trafficLightSpec(64)));
    int result = 0;
    collect(resolveText(tinyComputerSpec(tinyModProgram(23, 7, result),
                                         400)));
    collect(resolveText(tinyComputerSpec(tinyMulProgram(6, 7, result),
                                         400)));
    for (const char *preset : {"1k", "2000", "10k", "64000"})
        collect(resolve(generateSynthetic(syntheticPreset(preset))));

    std::vector<int32_t> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(i * 5 % 32);
    for (const char *text : kOpcodeSpecs) {
        SharedSpec rs = share(resolveText(text));
        collect(*rs);
        expectEquivalent(rs, 40, inputs);
    }

    std::set<std::string> linked;
    for (size_t i = 0; i < kOpCount; ++i)
        linked.insert(opName(static_cast<Op>(i)));
    std::string missing, extra;
    for (const std::string &name : linked) {
        if (!seen.count(name))
            missing += " " + name;
    }
    for (const std::string &name : seen) {
        if (!linked.count(name))
            extra += " " + name;
    }
    EXPECT_EQ(missing, "") << "live handlers no program links";
    EXPECT_EQ(extra, "") << "linked opcodes without a live handler";
}

/** The comb phase is straight-line code: every word from word 0 to the
 *  trace point is one component's dispatch, none transfers control,
 *  and the cursor spans of the whole stream add up to the term array.
 *  Case tables of every K class (1, 2, 3 or more) occur, and each
 *  class runs vm against interp and symbolic in a design below. */
TEST(Vm, CombStreamIsStraightLine)
{
    std::set<int32_t> classes, equivalent;
    const auto walk = [&classes](const ResolvedSpec &rs,
                                 const std::string &name) {
        std::set<int32_t> ks;
        const Program p = compileProgram(rs);
        size_t i = 0, cursor = 0;
        while (i < p.cycle.size() && p.cycle[i].op != Op::Latch) {
            const Instr &in = p.cycle[i];
            EXPECT_TRUE(in.op < Op::Latch)
                << name << " word " << i << ": " << opName(in.op);
            if (in.op == Op::SelCase)
                ks.insert(std::min<int32_t>(in.n[1], 3));
            cursor += cursorTerms(in);
            ++i;
        }
        EXPECT_LT(i, p.cycle.size()) << name << ": no trace point";
        for (; i < p.cycle.size(); ++i)
            cursor += cursorTerms(p.cycle[i]);
        EXPECT_EQ(cursor, p.terms.size()) << name;
        classes.insert(ks.begin(), ks.end());
        return ks;
    };
    const auto runBoth = [&](SharedSpec rs, const std::string &name,
                             uint64_t cycles,
                             const std::vector<int32_t> &inputs = {}) {
        const std::set<int32_t> ks = walk(*rs, name);
        expectEquivalent(rs, cycles, inputs);
        equivalent.insert(ks.begin(), ks.end());
    };

    std::vector<int32_t> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(i * 7 % 50);
    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() == ".asim") {
            runBoth(share(resolve(parseSpecFile(entry.path().string()))),
                    entry.path().filename().string(), 64, inputs);
        }
    }
    walk(resolveText(stackMachineSpec(sieveProgram(54), 1000000, true)),
         "sieve");
    int result = 0;
    runBoth(share(resolveText(tinyComputerSpec(
                tinyModProgram(23, 7, result), 400))),
            "tiny computer", 400);
    for (const char *preset : {"1k", "2000"}) {
        runBoth(share(resolve(generateSynthetic(syntheticPreset(preset)))),
                preset, 64);
    }
    walk(resolve(generateSynthetic(syntheticPreset("64000"))), "64000");
    for (const char *text : kOpcodeSpecs)
        runBoth(share(resolveText(text)), "opcode spec", 40, inputs);

    const std::set<int32_t> all = {1, 2, 3};
    EXPECT_EQ(classes, all);
    EXPECT_EQ(equivalent, all);
}

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
        auto results = runVariants({{"interp", "interp", fault},
                                    {"vm", "vm", fault},
                                    {"symbolic", "symbolic", fault},
                                    {"vm", "healthy", ""}},
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

/** @file Unit tests for stuck-at fault injection (thesis §2.3.2). */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/campaign.hh"
#include "analysis/fault.hh"
#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/counter.hh"
#include "sim/engine.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"
#include "support/rand.hh"

namespace asim {
namespace {

/** `spec` with bit `bit` of `comp` spliced under policy `mode`. */
Spec
stuck(const char *mode, const Spec &spec, const char *comp, int bit)
{
    FaultSite site;
    site.component = comp;
    site.bit = bit;
    site.mode = mode;
    return spliceFault(spec, site);
}

TEST(Fault, StructureOfInjectedSpec)
{
    Spec s = parseSpec(counterSpec(4, 20));
    Spec f = stuck("set0", s, "next", 0);
    EXPECT_NE(f.find("next"), nullptr);
    EXPECT_NE(f.find("nextFAULTED"), nullptr);
    EXPECT_EQ(f.find("next")->kind, CompKind::Alu);
    // The splice is an AND with the all-ones-except-bit-0 mask.
    EXPECT_EQ(f.terms(f.expr(*f.find("next"), 0))[0].value, 8);
}

TEST(Fault, UnknownComponentThrows)
{
    Spec s = parseSpec(counterSpec(4, 20));
    EXPECT_THROW(stuck("set0", s, "ghost", 0), SpecError);
    EXPECT_THROW(stuck("set0", s, "next", 31), SpecError);
    EXPECT_THROW(stuck("set0", s, "next", -1), SpecError);
}

TEST(Fault, StuckAt0ForcesEvenCounter)
{
    // Counter with bit 0 of `next` stuck at 0: count can only ever be
    // even (in fact it sticks at 0: 0+1=1 -> masked to 0).
    Spec f = stuck("set0", parseSpec(counterSpec(4, 20)), "next", 0);
    auto engine = makeVm(resolve(f));
    engine->run(16);
    EXPECT_EQ(engine->value("count"), 0);
}

TEST(Fault, StuckAt1OnCounterBit)
{
    // Bit 1 of next stuck at 1: sequence forced through odd patterns.
    Spec f = stuck("set1", parseSpec(counterSpec(4, 20)), "next", 1);
    auto engine = makeVm(resolve(f));
    for (int i = 0; i < 8; ++i) {
        engine->step();
        EXPECT_EQ(engine->value("count") & 2, 2)
            << "cycle " << i << ": bit 1 must be stuck high";
    }
}

TEST(Fault, HealthyCounterDiffersFromFaulty)
{
    // The fault must be observable: run both machines and compare.
    Spec healthy = parseSpec(counterSpec(4, 20));
    Spec faulty = stuck("set0", healthy, "next", 2);

    auto a = makeVm(resolve(healthy));
    auto b = makeVm(resolve(faulty));
    bool diverged = false;
    for (int i = 0; i < 16 && !diverged; ++i) {
        a->step();
        b->step();
        diverged = a->value("count") != b->value("count");
    }
    EXPECT_TRUE(diverged);
}

TEST(Fault, MemoryVictimKeepsTiming)
{
    // Faulting a memory splices a combinational ALU after the latch;
    // the observed value still changes one cycle after the write.
    Spec s = parseSpec(counterSpec(4, 20));
    Spec f = stuck("set1", s, "count", 3);
    auto engine = makeVm(resolve(f));
    engine->step();
    // count (observed) = latch | 8.
    EXPECT_EQ(engine->value("count") & 8, 8);
}

TEST(Fault, DoubleInjectionOnSameNameThrows)
{
    Spec s = parseSpec(counterSpec(4, 20));
    Spec once = stuck("set0", s, "next", 0);
    EXPECT_THROW(stuck("set0", once, "next", 1), SpecError);
}

// ---------------------------------------------------------------------
// The policy table: both sites derive from one row
// ---------------------------------------------------------------------

/** Run `fn` and return the SpecError text it throws (must throw). */
template <typename Fn>
std::string
specErrorText(Fn &&fn)
{
    try {
        fn();
    } catch (const SpecError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SpecError";
    return "";
}

TEST(FaultRegistry, BuiltinPolicies)
{
    std::vector<std::string> names;
    for (const FaultPolicy &p : kFaultPolicies)
        names.emplace_back(p.name);
    EXPECT_EQ(names, (std::vector<std::string>{"set0", "set1", "toggle"}));
    EXPECT_EQ(&faultPolicy("toggle"), &kFaultPolicies[2]);

    // apply(): one bit perturbed under each policy.
    EXPECT_EQ(faultPolicy("set0").apply(0b1111, 1), 0b1101);
    EXPECT_EQ(faultPolicy("set1").apply(0b0000, 2), 0b0100);
    EXPECT_EQ(faultPolicy("toggle").apply(0b0110, 1), 0b0100);
    EXPECT_EQ(faultPolicy("toggle").apply(0b0110, 3), 0b1110);
}

TEST(FaultRegistry, UnknownInjectorNamesTheRegistered)
{
    EXPECT_EQ(specErrorText([] { faultPolicy("bogus"); }),
              "Error. Unknown fault injector <bogus>; registered "
              "injectors: set0, set1, toggle.");
    EXPECT_EQ(specErrorText([] {
                  stuck("bogus", parseSpec(counterSpec(4, 20)), "next", 0);
              }),
              "Error. Unknown fault injector <bogus>; registered "
              "injectors: set0, set1, toggle.");
}

TEST(FaultRegistry, ToggleSpliceFlipsOneOutputBit)
{
    // toggle on bit 2 of `next`: the counter sees (count+1) ^ 4.
    Spec f = stuck("toggle", parseSpec(counterSpec(6, 100)), "next", 2);
    auto engine = makeVm(resolve(f));
    int32_t healthy = 0;
    for (int i = 0; i < 12; ++i) {
        healthy = (healthy + 1) ^ 4;
        engine->step();
        ASSERT_EQ(engine->value("count"), healthy) << "cycle " << i;
    }
}

/** The values every policy is checked on: the edges, then seeded
 *  random words of both signs. */
std::vector<int32_t>
policyValues()
{
    std::vector<int32_t> values = {0, 1, kValueMask, -1, INT32_MIN};
    SplitMix64 rng(29);
    for (int i = 0; i < 16; ++i)
        values.push_back(static_cast<int32_t>(rng.next()));
    return values;
}

/** For every policy, bit and value, state injection leaves the word
 *  the spliced ALU computes: one spec holds each value as a constant
 *  ALU `v<i>`, all spliced, and one memory holds each as a cell. */
TEST(FaultRegistry, StateInjectionMatchesTheSplicedAlu)
{
    const std::vector<int32_t> values = policyValues();
    std::string text = "# one constant per value\nm";
    for (size_t i = 0; i < values.size(); ++i)
        text += " v" + std::to_string(i);
    text += " .\n";
    for (size_t i = 0; i < values.size(); ++i)
        text += "A v" + std::to_string(i) + " 1 0 " +
                std::to_string(values[i]) + "\n";
    text += "M m 0 0 0 " + std::to_string(values.size()) + "\n.\n";
    const Spec healthy = parseSpec(text);
    const ResolvedSpec rs = resolve(healthy);

    for (const FaultPolicy &policy : kFaultPolicies) {
        for (int bit = 0; bit < kMaxBits; ++bit) {
            Spec spliced = healthy;
            MachineState state;
            state.reset(rs);
            for (size_t i = 0; i < values.size(); ++i) {
                FaultSite site;
                site.component = "v" + std::to_string(i);
                site.bit = bit;
                site.mode = std::string(policy.name);
                spliced = spliceFault(spliced, site);
                state.mems[0].cells[i] = values[i];
                site.component = "m";
                site.cell = static_cast<int64_t>(i);
                EXPECT_EQ(injectFault(state, rs, site), values[i]);
            }
            auto engine = makeInterpreter(resolve(spliced));
            engine->step();
            for (size_t i = 0; i < values.size(); ++i) {
                ASSERT_EQ(engine->value("v" + std::to_string(i)),
                          state.mems[0].cells[i])
                    << policy.name << " bit " << bit << " on "
                    << values[i];
                ASSERT_EQ(state.mems[0].cells[i],
                          policy.apply(values[i], bit));
            }
        }
    }
}

/** A set0 splice on a negative value clears only its bit: the mask
 *  is ~2^b, not ~2^b within the 31-bit value mask. */
TEST(FaultRegistry, Set0SpliceKeepsTheSignBit)
{
    const char *spec = "# negative values under a set0 splice\n"
                       "= 4\n"
                       "count* neg* next .\n"
                       "A next 4 count.0.3 1\n"
                       "A neg 5 0 count\n"
                       "M count 0 next 1 1\n"
                       ".\n";
    std::vector<std::string> engines = {"interp", "vm", "symbolic"};
    if (NativeEngine::available())
        engines.push_back("native");
    for (const std::string &engine : engines) {
        std::ostringstream trace;
        SimulationOptions opts;
        opts.specText = spec;
        opts.engine = engine;
        opts.fault = "neg:0:set0";
        opts.traceStream = &trace;
        Simulation sim(opts);
        sim.run(2);
        EXPECT_NE(trace.str().find("Cycle   1 count= 1 neg= -2\n"),
                  std::string::npos)
            << engine << ":\n"
            << trace.str();
    }
}

// ---------------------------------------------------------------------
// The shared fault grammar: component[cell]:bit:mode[@cycle]
// ---------------------------------------------------------------------

TEST(FaultGrammar, ParsesSpliceForm)
{
    FaultSite s = parseFaultSite("next:4:set1");
    EXPECT_EQ(s.component, "next");
    EXPECT_EQ(s.cell, -1);
    EXPECT_EQ(s.bit, 4);
    EXPECT_EQ(s.mode, "set1");
    EXPECT_FALSE(s.atCycle);
    EXPECT_EQ(formatFaultSite(s), "next:4:set1");
}

TEST(FaultGrammar, ParsesTransientCellForm)
{
    FaultSite s = parseFaultSite("mem[13]:7:toggle@250");
    EXPECT_EQ(s.component, "mem");
    EXPECT_EQ(s.cell, 13);
    EXPECT_EQ(s.bit, 7);
    EXPECT_EQ(s.mode, "toggle");
    EXPECT_TRUE(s.atCycle);
    EXPECT_EQ(s.cycle, 250u);
    EXPECT_EQ(formatFaultSite(s), "mem[13]:7:toggle@250");
}

TEST(FaultGrammar, RoundTripsThroughFormat)
{
    for (const char *text :
         {"a:0:set0", "b[0]:30:toggle@1", "long_name[999]:15:set1@0",
          "count:12:toggle@64"}) {
        FaultSite s = parseFaultSite(text);
        EXPECT_EQ(formatFaultSite(s), text);
    }
}

TEST(FaultGrammar, RejectsMalformedText)
{
    EXPECT_EQ(specErrorText([] { parseFaultSite("count"); }),
              "Error. Bad fault <count>: missing :bit:mode "
              "(want component[cell]:bit:mode[@cycle]).");
    EXPECT_EQ(specErrorText([] { parseFaultSite("count:x:set0"); }),
              "Error. Bad fault <count:x:set0>: bit must be an "
              "integer (want component[cell]:bit:mode[@cycle]).");
    EXPECT_EQ(specErrorText([] { parseFaultSite("count:1:"); }),
              "Error. Bad fault <count:1:>: missing mode "
              "(want component[cell]:bit:mode[@cycle]).");
    EXPECT_EQ(
        specErrorText([] { parseFaultSite("count:1:set0@next"); }),
        "Error. Bad fault <count:1:set0@next>: cycle must be a "
        "non-negative integer "
        "(want component[cell]:bit:mode[@cycle]).");
    EXPECT_EQ(specErrorText([] { parseFaultSite("count:31:set0"); }),
              "Error. Fault bit 31 out of range 0..30.");
    // A cell fault with no @cycle cannot be a spec splice.
    EXPECT_EQ(specErrorText([] { parseFaultSite("mem[3]:1:set0"); }),
              "Error. Cell faults need @cycle (a spec splice can "
              "only observe component <mem>'s output).");
}

TEST(FaultGrammar, ValidatesAgainstResolvedSpec)
{
    // gcd-like machine: `count` memory of size 1, `next` ALU.
    ResolvedSpec rs = resolve(parseSpec(counterSpec(6, 100)));

    validateFaultSite(rs, parseFaultSite("count:3:toggle@5"));
    validateFaultSite(rs, parseFaultSite("count[0]:3:set1@5"));
    validateFaultSite(rs, parseFaultSite("next:3:set0"));

    EXPECT_EQ(specErrorText([&] {
                  validateFaultSite(
                      rs, parseFaultSite("ghost:1:set0"));
              }),
              "Error. Component <ghost> not found.");
    EXPECT_EQ(specErrorText([&] {
                  validateFaultSite(
                      rs, parseFaultSite("count:1:bogus@2"));
              }),
              "Error. Unknown fault injector <bogus>; registered "
              "injectors: set0, set1, toggle.");
    EXPECT_EQ(specErrorText([&] {
                  validateFaultSite(
                      rs, parseFaultSite("next[0]:1:set0@2"));
              }),
              "Error. Component <next> is not a memory; cell faults "
              "need a memory.");
    EXPECT_EQ(specErrorText([&] {
                  validateFaultSite(
                      rs, parseFaultSite("count[5]:1:set0@2"));
              }),
              "Error. Fault cell 5 out of range for memory <count> "
              "(size 1).");
    EXPECT_EQ(specErrorText([&] {
                  validateFaultSite(
                      rs, parseFaultSite("next:1:set0@2"));
              }),
              "Error. Component <next> holds no state; @cycle faults "
              "need a memory (omit @cycle to splice a stuck bit).");
}

} // namespace
} // namespace asim

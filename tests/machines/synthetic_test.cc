/** @file Tests for the synthetic specification generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/synthetic.hh"
#include "sim/engine.hh"

namespace asim {
namespace {

TEST(Synthetic, Deterministic)
{
    SyntheticOptions a, b;
    a.seed = b.seed = 42;
    EXPECT_EQ(generateSyntheticText(a), generateSyntheticText(b));
    b.seed = 43;
    EXPECT_NE(generateSyntheticText(a), generateSyntheticText(b));
}

TEST(Synthetic, RequestedComponentCounts)
{
    SyntheticOptions opts;
    opts.alus = 10;
    opts.selectors = 5;
    opts.memories = 4;
    Spec s = generateSynthetic(opts);
    int alus = 0, sels = 0, mems = 0;
    for (const auto &c : s.comps) {
        alus += c.kind == CompKind::Alu;
        sels += c.kind == CompKind::Selector;
        mems += c.kind == CompKind::Memory;
    }
    EXPECT_EQ(alus, 10);
    EXPECT_EQ(sels, 5);
    EXPECT_EQ(mems, 4);
}

/** Every generated spec must parse, resolve, and run 500 cycles on
 *  both engines without runtime faults. */
class SyntheticSafety : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(SyntheticSafety, ResolvesAndRuns)
{
    SyntheticOptions opts;
    opts.seed = GetParam();
    opts.alus = 12;
    opts.selectors = 6;
    opts.memories = 4;
    ResolvedSpec rs;
    ASSERT_NO_THROW(rs = resolve(parseSpec(generateSyntheticText(opts))));
    VectorIo io;
    for (int i = 0; i < 1024; ++i)
        io.pushInput(i);
    EngineConfig cfg;
    cfg.io = &io;
    auto e = makeVm(rs, cfg);
    EXPECT_NO_THROW(e->run(500));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSafety,
                         ::testing::Range(100u, 140u));

/** Dependency depth of the resolved combinational network: longest
 *  chain of references to combinational outputs (output latches map
 *  to no producer), in components. */
int
dependencyDepth(const ResolvedSpec &rs)
{
    std::vector<int> slotToComb(rs.numVarSlots + rs.mems.size(), -1);
    for (size_t i = 0; i < rs.comb.size(); ++i)
        slotToComb[rs.comb[i].slot] = static_cast<int>(i);
    std::vector<int> level(rs.comb.size(), 0);
    int depth = 0;
    for (size_t i = 0; i < rs.comb.size(); ++i) {
        const CombComp &c = rs.comb[i];
        for (const ResolvedExpr &e : rs.exprs(c)) {
            for (const ResolvedTerm &t : rs.terms(e)) {
                int p = slotToComb[t.slot];
                if (p >= 0 && level[p] + 1 > level[i])
                    level[i] = level[p] + 1;
            }
        }
        depth = std::max(depth, level[i] + 1);
    }
    return depth;
}

TEST(SyntheticLayered, DepthBoundedByLayerCount)
{
    for (uint32_t seed : {1u, 7u, 21u}) {
        SyntheticOptions opts;
        opts.alus = 160;
        opts.selectors = 40;
        opts.memories = 4;
        opts.seed = seed;
        opts.layers = 6;
        ResolvedSpec rs = resolve(generateSynthetic(opts));
        EXPECT_LE(dependencyDepth(rs), 6) << "seed " << seed;
    }
}

TEST(SyntheticLayered, FullLocalityStaysDisconnected)
{
    // 100% locality references only the column directly above, so no
    // two columns ever merge: depth stays bounded AND the legacy mode
    // (layers = 0) produces a deeper network from the same budget.
    SyntheticOptions opts;
    opts.alus = 160;
    opts.selectors = 40;
    opts.memories = 4;
    opts.seed = 3;
    opts.layers = 5;
    opts.localityPercent = 100;
    ResolvedSpec layered = resolve(generateSynthetic(opts));
    EXPECT_LE(dependencyDepth(layered), 5);

    opts.layers = 0;
    ResolvedSpec legacy = resolve(generateSynthetic(opts));
    EXPECT_GT(dependencyDepth(legacy), 5);
}

TEST(SyntheticLayered, ResolvesAndRuns)
{
    for (uint32_t seed : {5u, 6u}) {
        SyntheticOptions opts;
        opts.seed = seed;
        opts.alus = 60;
        opts.selectors = 20;
        opts.memories = 4;
        opts.layers = 8;
        opts.localityPercent = 50;
        ResolvedSpec rs;
        ASSERT_NO_THROW(
            rs = resolve(parseSpec(generateSyntheticText(opts))));
        VectorIo io;
        for (int i = 0; i < 1024; ++i)
            io.pushInput(i);
        EngineConfig cfg;
        cfg.io = &io;
        auto vm = makeVm(rs, cfg);
        auto interp = makeInterpreter(rs, cfg);
        EXPECT_NO_THROW(vm->run(300));
        EXPECT_NO_THROW(interp->run(300));
    }
}

TEST(SyntheticPreset, NamesAndNumbers)
{
    SyntheticOptions k10 = syntheticPreset("10k");
    EXPECT_EQ(k10.alus + k10.selectors, 10000);
    EXPECT_EQ(k10.layers, 16);
    EXPECT_FALSE(k10.withIo);
    EXPECT_EQ(k10.tracedPercent, 0);

    EXPECT_EQ(syntheticPreset("1k").alus + syntheticPreset("1k").selectors,
              1000);
    EXPECT_EQ(syntheticPreset("250").alus +
                  syntheticPreset("250").selectors,
              250);

    EXPECT_THROW(syntheticPreset("bogus"), SpecError);
    EXPECT_THROW(syntheticPreset("0"), SpecError);
    EXPECT_THROW(syntheticPreset("-5"), SpecError);
    EXPECT_THROW(syntheticPreset("10kk"), SpecError);
}

TEST(SyntheticPreset, GeneratesDeterministically)
{
    EXPECT_EQ(generateSyntheticText(syntheticPreset("1k")),
              generateSyntheticText(syntheticPreset("1k")));
}

} // namespace
} // namespace asim

/** @file Round-trip tests: parse(write(spec)) is structurally equal. */

#include <gtest/gtest.h>

#include <algorithm>

#include "lang/parser.hh"
#include "lang/writer.hh"
#include "machines/counter.hh"
#include "machines/synthetic.hh"

namespace asim {
namespace {

void
expectSpecsEqual(const Spec &a, const Spec &b)
{
    EXPECT_EQ(a.comment, b.comment);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesSpecified, b.cyclesSpecified);
    ASSERT_EQ(a.decls.size(), b.decls.size());
    for (size_t i = 0; i < a.decls.size(); ++i) {
        EXPECT_EQ(a.name(a.decls[i].name), b.name(b.decls[i].name));
        EXPECT_EQ(a.decls[i].traced, b.decls[i].traced);
    }
    ASSERT_EQ(a.comps.size(), b.comps.size());
    for (size_t i = 0; i < a.comps.size(); ++i) {
        const Component &x = a.comps[i];
        const Component &y = b.comps[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(a.name(x.name), b.name(y.name));
        ASSERT_EQ(x.numExprs, y.numExprs);
        for (uint32_t e = 0; e < x.numExprs; ++e) {
            const auto tx = a.terms(a.expr(x, e));
            const auto ty = b.terms(b.expr(y, e));
            ASSERT_EQ(tx.size(), ty.size());
            for (size_t k = 0; k < tx.size(); ++k) {
                EXPECT_EQ(tx[k].kind, ty[k].kind);
                EXPECT_EQ(tx[k].width, ty[k].width);
                EXPECT_EQ(tx[k].from, ty[k].from);
                EXPECT_EQ(tx[k].to, ty[k].to);
                if (tx[k].kind == Term::Kind::Ref)
                    EXPECT_EQ(a.name(tx[k].ref), b.name(ty[k].ref));
                else
                    EXPECT_EQ(tx[k].value, ty[k].value);
            }
        }
        EXPECT_EQ(x.memSize, y.memSize);
        EXPECT_TRUE(std::ranges::equal(a.init(x), b.init(y)));
    }
}

TEST(Writer, CounterRoundTrip)
{
    Spec a = parseSpec(counterSpec(4, 20));
    Spec b = parseSpec(writeSpec(a));
    expectSpecsEqual(a, b);
}

TEST(Writer, TrafficLightRoundTrip)
{
    Spec a = parseSpec(trafficLightSpec(50));
    Spec b = parseSpec(writeSpec(a));
    expectSpecsEqual(a, b);
}

TEST(Writer, ComponentLineShapes)
{
    Spec s = parseSpec("# shapes\n"
                       "a sel m n .\n"
                       "A a 4 m.0.3 #01\n"
                       "S sel a.0 1 2\n"
                       "M m 0 a 1 4\n"
                       "M n 0 a 1 -2 7 9\n"
                       ".\n");
    EXPECT_EQ(writeComponent(s, s.comps[0]), "A a 4 m.0.3 #01");
    EXPECT_EQ(writeComponent(s, s.comps[1]), "S sel a.0 1 2");
    EXPECT_EQ(writeComponent(s, s.comps[2]), "M m 0 a 1 4");
    EXPECT_EQ(writeComponent(s, s.comps[3]), "M n 0 a 1 -2 7 9");
}

TEST(Writer, WrappedConstantsRoundTrip)
{
    Spec a = parseSpec("# wrap\n"
                       "a m .\n"
                       "A a 4 ^31 $FFFFFFFF.4\n"
                       "M m 0 a 1 -2 ^31 7\n"
                       ".\n");
    Spec b = parseSpec(writeSpec(a));
    expectSpecsEqual(a, b);
    EXPECT_EQ(writeSpec(a), writeSpec(b));
    // Only '-' then decimal digits is accepted, as the writer prints.
    EXPECT_THROW(parseSpec("# wrap\nm .\nM m 0 0 1 -1 -1+2\n.\n"),
                 SpecError);
    EXPECT_THROW(parseSpec("# wrap\nm .\nM m 0 0 1 -1 -$FF\n.\n"),
                 SpecError);
}

/** Property: every synthetic spec round-trips through text. */
class WriterProperty : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(WriterProperty, SyntheticRoundTrip)
{
    SyntheticOptions opts;
    opts.seed = GetParam();
    Spec a = generateSynthetic(opts);
    Spec b = parseSpec(writeSpec(a));
    expectSpecsEqual(a, b);
    // And again: serialization is a fixed point.
    EXPECT_EQ(writeSpec(a), writeSpec(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriterProperty,
                         ::testing::Range(1u, 21u));

} // namespace
} // namespace asim

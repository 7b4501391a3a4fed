/** @file Round-trip tests: parse(write(spec)) is structurally equal. */

#include <gtest/gtest.h>

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
    for (size_t i = 0; i < a.decls.size(); ++i)
        EXPECT_EQ(a.decls[i], b.decls[i]);
    ASSERT_EQ(a.comps.size(), b.comps.size());
    for (size_t i = 0; i < a.comps.size(); ++i) {
        const Component &x = a.comps[i];
        const Component &y = b.comps[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.funct, y.funct);
        EXPECT_EQ(x.left, y.left);
        EXPECT_EQ(x.right, y.right);
        EXPECT_EQ(x.select, y.select);
        EXPECT_EQ(x.cases, y.cases);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.data, y.data);
        EXPECT_EQ(x.opn, y.opn);
        EXPECT_EQ(x.memSize, y.memSize);
        EXPECT_EQ(x.init, y.init);
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
    EXPECT_EQ(writeComponent(s.comps[0]), "A a 4 m.0.3 #01");
    EXPECT_EQ(writeComponent(s.comps[1]), "S sel a.0 1 2");
    EXPECT_EQ(writeComponent(s.comps[2]), "M m 0 a 1 4");
    EXPECT_EQ(writeComponent(s.comps[3]), "M n 0 a 1 -2 7 9");
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

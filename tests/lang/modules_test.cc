/** @file
 * Tests for the §5.4 modularity extension: module definition (D .. E)
 * and compile-time expansion (U).
 */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "sim/engine.hh"
#include "support/logging.hh"

namespace asim {
namespace {

/** A reusable full adder built once, instantiated twice. */
const char *kTwoCounters =
    "# two independent counters from one module\n"
    "c1* c2* .\n"
    "D counter out width .\n"
    "A next 4 out 1\n"
    "A masked 8 next width\n"
    "M out 0 masked 1 1\n"
    "E\n"
    "A w3 2 7 0\n"
    "A w4 2 15 0\n"
    "U u1 counter c1 w3\n"
    "U u2 counter c2 w4\n"
    ".\n";

TEST(Modules, ExpansionCreatesPrefixedComponents)
{
    Spec s = parseSpec(kTwoCounters);
    EXPECT_NE(s.find("c1"), nullptr);
    EXPECT_NE(s.find("c2"), nullptr);
    EXPECT_NE(s.find("u1next"), nullptr);
    EXPECT_NE(s.find("u1masked"), nullptr);
    EXPECT_NE(s.find("u2next"), nullptr);
    // Internals reference the mapped names.
    EXPECT_EQ(exprToString(s, s.expr(*s.find("u1next"), 1)), "c1");
    EXPECT_EQ(exprToString(s, s.expr(*s.find("u2next"), 1)), "c2");
    EXPECT_EQ(exprToString(s, s.expr(*s.find("u1masked"), 2)), "w3");
}

TEST(Modules, ExpandedNamesAutoDeclared)
{
    Spec s = parseSpec(kTwoCounters);
    int found = 0;
    for (const auto &d : s.decls) {
        if (s.name(d.name) == "u1next" || s.name(d.name) == "u2masked")
            ++found;
    }
    EXPECT_EQ(found, 2);
}

TEST(Modules, AutoDeclaredOnceInExpansionOrder)
{
    // No user declarations: every expanded name joins the list once,
    // untraced, in expansion order.
    Spec s = parseSpec("# undeclared\n"
                       ".\n"
                       "D counter out width .\n"
                       "A next 4 out 1\n"
                       "M out 0 next 1 1\n"
                       "E\n"
                       "A w 2 7 0\n"
                       "U u1 counter c1 w\n"
                       "U u2 counter c2 w\n"
                       ".\n");
    const std::vector<std::pair<std::string, bool>> decls = {
        {"u1next", false}, {"c1", false}, {"u2next", false}, {"c2", false}};
    std::vector<std::pair<std::string, bool>> got;
    for (const DeclName &d : s.decls)
        got.emplace_back(s.name(d.name), d.traced);
    EXPECT_EQ(got, decls);
}

TEST(Modules, InstancesRunIndependently)
{
    auto e = makeVm(resolveText(kTwoCounters));
    e->run(10);
    // c1 is a 3-bit counter (mask 7), c2 a 4-bit counter (mask 15).
    EXPECT_EQ(e->value("c1"), 10 & 7);
    EXPECT_EQ(e->value("c2"), 10 & 15);
    e->run(8);
    EXPECT_EQ(e->value("c1"), 18 & 7);
    EXPECT_EQ(e->value("c2"), 18 % 16);
}

TEST(Modules, UnknownModuleThrows)
{
    EXPECT_THROW(parseSpec("# bad\nx .\nU i nomod x\n.\n"), SpecError);
}

TEST(Modules, DuplicateModuleThrows)
{
    EXPECT_THROW(parseSpec("# bad\nx .\n"
                           "D m a .\nA a 0 0 0\nE\n"
                           "D m b .\nA b 0 0 0\nE\n"
                           ".\n"),
                 SpecError);
}

TEST(Modules, UnterminatedModuleThrows)
{
    EXPECT_THROW(parseSpec("# bad\nx .\nD m a .\nA a 0 0 0\n"),
                 SpecError);
}

TEST(Modules, BadBodyComponentThrows)
{
    EXPECT_THROW(parseSpec("# bad\nx .\nD m a .\nQ a 0 0 0\nE\n.\n"),
                 SpecError);
}

TEST(Modules, MemoryInsideModule)
{
    // A module wrapping a register file cell.
    const char *text = "# module with memory\n"
                       "out .\n"
                       "D reg out in en .\n"
                       "M out 0 in en 1\n"
                       "E\n"
                       "A v 2 42 0\n"
                       "A one 2 1 0\n"
                       "U r reg out v one\n"
                       ".\n";
    auto e = makeVm(resolveText(text));
    e->step();
    EXPECT_EQ(e->value("out"), 42);
}

TEST(Modules, DoubleInstantiationOfSameActualsCollides)
{
    // Two instances driving the same output component: duplicate
    // definition error from resolution.
    const char *text = "# collide\n"
                       "o .\n"
                       "D m o .\nA o 2 1 0\nE\n"
                       "U a m o\n"
                       "U b m o\n"
                       ".\n";
    EXPECT_THROW(resolveText(text), SpecError);
}

TEST(Modules, ModuleUsingGlobalComponent)
{
    // Module bodies may reference globally defined components (they
    // pass through the rename map untouched).
    const char *text = "# global ref\n"
                       "g out .\n"
                       "A g 2 5 0\n"
                       "D addg out x .\n"
                       "A out 4 x g\n"
                       "E\n"
                       "A two 2 2 0\n"
                       "U i addg out two\n"
                       ".\n";
    auto e = makeVm(resolveText(text));
    e->step();
    EXPECT_EQ(e->value("out"), 7);
}

/** A selector's case list ends at a module definition: the `D` is not
 *  read as a case and the module and its use are not dropped. */
TEST(Modules, SelectorBeforeModuleDefinition)
{
    const char *text = "# selector then module definition\n"
                       "s o .\n"
                       "A k 2 1 0\n"
                       "S s k 10 20\n"
                       "D inc out x .\n"
                       "A out 4 x 1\n"
                       "E\n"
                       "U i inc o s\n"
                       ".\n";
    Spec s = parseSpec(text);
    EXPECT_EQ(s.find("s")->numExprs, 3u);
    auto e = makeVm(resolveText(text));
    e->step();
    EXPECT_EQ(e->value("s"), 20);
    EXPECT_EQ(e->value("o"), 21);
}

/** A selector's case list ends at a module use. */
TEST(Modules, SelectorBeforeModuleUse)
{
    const char *text = "# selector then module use\n"
                       "s o .\n"
                       "D inc out x .\n"
                       "A out 4 x 1\n"
                       "E\n"
                       "A k 2 0 0\n"
                       "S s k 10 20\n"
                       "U i inc o s\n"
                       ".\n";
    Spec s = parseSpec(text);
    EXPECT_EQ(s.find("s")->numExprs, 3u);
    auto e = makeVm(resolveText(text));
    e->step();
    EXPECT_EQ(e->value("o"), 11);
}

/** A selector last in a module body ends at the body's `E`. */
TEST(Modules, SelectorLastInModuleBody)
{
    const char *text = "# selector last in a module body\n"
                       "o .\n"
                       "D pick out x .\n"
                       "S out x 10 20 30\n"
                       "E\n"
                       "A k 2 2 0\n"
                       "U i pick o k\n"
                       ".\n";
    Spec s = parseSpec(text);
    ASSERT_NE(s.find("o"), nullptr);
    EXPECT_EQ(s.find("o")->numExprs, 4u);
    EXPECT_NE(s.find("k"), nullptr);
    auto e = makeVm(resolveText(text));
    e->step();
    EXPECT_EQ(e->value("o"), 30);
}

} // namespace
} // namespace asim

/** @file Unit tests for dependency ordering (thesis orderit). */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/depgraph.hh"
#include "lang/parser.hh"
#include "support/logging.hh"

namespace asim {
namespace {

std::vector<std::string>
orderNames(const std::string &text)
{
    Spec s = parseSpec(text);
    std::vector<std::string> names;
    for (int i : orderCombinational(s))
        names.emplace_back(s.name(s.comps[i].name));
    return names;
}

TEST(Depgraph, ChainSortsInDependencyOrder)
{
    // c depends on b depends on a, declared in reverse.
    auto names = orderNames("# chain\n"
                            "a b c .\n"
                            "A c 4 b 1\n"
                            "A b 4 a 1\n"
                            "A a 4 1 1\n"
                            ".\n");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

TEST(Depgraph, IndependentKeepDeclarationOrder)
{
    auto names = orderNames("# indep\n"
                            "x y z .\n"
                            "A x 4 1 1\n"
                            "A y 4 2 2\n"
                            "A z 4 3 3\n"
                            ".\n");
    EXPECT_EQ(names, (std::vector<std::string>{"x", "y", "z"}));
}

TEST(Depgraph, MemoriesImposeNoOrder)
{
    // Both ALUs read memory latches: no edges between them.
    auto names = orderNames("# mems\n"
                            "a b m .\n"
                            "A a 4 m 1\n"
                            "A b 4 m a\n"
                            "M m 0 b 1 1\n"
                            ".\n");
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a"); // b reads a -> a first
    EXPECT_EQ(names[1], "b");
}

TEST(Depgraph, SelectorCasesCreateDependencies)
{
    auto names = orderNames("# selcases\n"
                            "s a m .\n"
                            "S s m.0 1 a\n"
                            "A a 4 1 1\n"
                            "M m 0 s 1 1\n"
                            ".\n");
    EXPECT_EQ(names, (std::vector<std::string>{"a", "s"}));
}

TEST(Depgraph, CircularDependencyThrows)
{
    try {
        orderNames("# circle\n"
                   "a b .\n"
                   "A a 4 b 1\n"
                   "A b 4 a 1\n"
                   ".\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("Circular dependency"), std::string::npos);
        EXPECT_NE(msg.find("a"), std::string::npos);
        EXPECT_NE(msg.find("b"), std::string::npos);
    }
}

TEST(Depgraph, SelfReferenceIsCircular)
{
    EXPECT_THROW(orderNames("# self\n"
                            "a .\n"
                            "A a 4 a 1\n"
                            ".\n"),
                 SpecError);
}

TEST(Depgraph, SelfReferenceThroughMemoryIsFine)
{
    // A memory feeding itself through its latch is the normal
    // register pattern, not a combinational cycle.
    auto names = orderNames("# reg\n"
                            "inc count .\n"
                            "A inc 4 count 1\n"
                            "M count 0 inc 1 1\n"
                            ".\n");
    EXPECT_EQ(names, (std::vector<std::string>{"inc"}));
}

TEST(Depgraph, DependsOnHelper)
{
    Spec s = parseSpec("# dep\n"
                       "a b .\n"
                       "A a 4 b.3 1\n"
                       "A b 4 1 1\n"
                       ".\n");
    EXPECT_TRUE(dependsOn(s, s.comps[0], s.comps[1]));
    EXPECT_FALSE(dependsOn(s, s.comps[1], s.comps[0]));
}

TEST(Depgraph, LargeDiamond)
{
    // root -> n1..n40 -> sink; valid topological order required.
    std::string text = "# diamond\nroot sink";
    for (int i = 0; i < 40; ++i)
        text += " n" + std::to_string(i);
    text += " .\n";
    text += "A sink 4 n0 n1\n";
    for (int i = 0; i < 40; ++i)
        text += "A n" + std::to_string(i) + " 4 root 1\n";
    text += "A root 4 1 1\n.\n";

    auto names = orderNames(text);
    ASSERT_EQ(names.size(), 42u);
    EXPECT_EQ(names.front(), "root");
    // Every ni must appear after root; sink after its inputs n0, n1.
    auto pos = [&](const std::string &n) {
        return std::find(names.begin(), names.end(), n) - names.begin();
    };
    for (int i = 0; i < 40; ++i)
        EXPECT_GT(pos("n" + std::to_string(i)), pos("root"));
    EXPECT_GT(pos("sink"), pos("n0"));
    EXPECT_GT(pos("sink"), pos("n1"));
}

} // namespace
} // namespace asim

/** @file Unit tests for dependency ordering (thesis orderit). */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

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

/** A random specification: `comb` ALUs and selectors and `mems`
 *  memories, declared and defined in two independent shuffles, so
 *  references point forward and backward in the text. Each
 *  combinational component has a hidden rank and reads only lower
 *  ranks (and any memory): acyclic. With `cyclic`, two components
 *  also read each other, or one reads itself. */
std::string
randomSpec(uint32_t seed, int comb, int mems, bool cyclic)
{
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    std::vector<int> rank(comb);
    for (int i = 0; i < comb; ++i)
        rank[i] = i;
    std::shuffle(rank.begin(), rank.end(), rng);
    std::vector<int> byRank(comb);
    for (int i = 0; i < comb; ++i)
        byRank[rank[i]] = i;

    auto cname = [](int i) { return "c" + std::to_string(i); };
    auto mname = [](int i) { return "m" + std::to_string(i); };
    // A 1-bit reference: a lower-ranked component of `i`, or a memory.
    auto ref = [&](int i) {
        const int bit = pick(31);
        if (rank[i] > 0 && pick(4) != 0)
            return cname(byRank[pick(rank[i])]) + "." + std::to_string(bit);
        return mname(pick(mems)) + "." + std::to_string(bit);
    };
    auto expr = [&](int i) {
        if (pick(5) == 0)
            return std::to_string(pick(100));
        std::string e = ref(i);
        for (int k = pick(3); k > 0; --k)
            e += "," + (pick(3) ? ref(i) : "#" + std::to_string(pick(2)));
        return e;
    };

    std::vector<std::string> lines;
    for (int i = 0; i < comb; ++i) {
        if (pick(3) == 0) {
            lines.push_back("S " + cname(i) + " " + ref(i) + " " + expr(i) +
                            " " + expr(i));
        } else {
            lines.push_back("A " + cname(i) + " " +
                            (pick(4) ? std::to_string(pick(14)) : ref(i)) +
                            " " + expr(i) + " " + expr(i));
        }
    }
    if (cyclic) {
        // Two components read each other (one reads itself when both
        // picks agree).
        const int a = pick(comb), b = pick(comb);
        lines[a] += "," + cname(b) + ".0";
        lines[b] += "," + cname(a) + ".1";
    }
    for (int i = 0; i < mems; ++i) {
        lines.push_back("M " + mname(i) + " 0 " +
                        (comb ? cname(pick(comb)) : std::string("1")) +
                        " 1 1");
    }
    std::shuffle(lines.begin(), lines.end(), rng);

    std::vector<std::string> decls;
    for (int i = 0; i < comb; ++i)
        decls.push_back(cname(i));
    for (int i = 0; i < mems; ++i)
        decls.push_back(mname(i));
    std::shuffle(decls.begin(), decls.end(), rng);

    std::string text = "# random order seed " + std::to_string(seed) + "\n";
    for (const auto &d : decls)
        text += d + "\n";
    text += ".\n";
    for (const auto &l : lines)
        text += l + "\n";
    return text + ".\n";
}

/** The order and error the thesis relation asks for, computed the
 *  plain way: Kahn's algorithm over a min-heap of declaration
 *  indexes, edges found by name. */
std::vector<int>
referenceOrder(const Spec &spec)
{
    const int n = static_cast<int>(spec.comps.size());
    std::unordered_map<std::string, int> byName;
    for (int i = 0; i < n; ++i) {
        if (spec.comps[i].kind != CompKind::Memory)
            byName.emplace(std::string(spec.name(spec.comps[i].name)), i);
    }
    std::vector<std::vector<int>> users(n);
    std::vector<int> indegree(n, 0);
    for (int i = 0; i < n; ++i) {
        if (spec.comps[i].kind == CompKind::Memory)
            continue;
        for (Expr e : spec.exprs(spec.comps[i])) {
            for (const Term &t : spec.terms(e)) {
                if (t.kind != Term::Kind::Ref)
                    continue;
                auto it = byName.find(std::string(spec.name(t.ref)));
                if (it == byName.end())
                    continue;
                users[it->second].push_back(i);
                ++indegree[i];
            }
        }
    }
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    size_t combCount = 0;
    for (int i = 0; i < n; ++i) {
        if (spec.comps[i].kind == CompKind::Memory)
            continue;
        ++combCount;
        if (indegree[i] == 0)
            ready.push(i);
    }
    std::vector<int> order;
    while (!ready.empty()) {
        const int i = ready.top();
        ready.pop();
        order.push_back(i);
        for (int u : users[i]) {
            if (--indegree[u] == 0)
                ready.push(u);
        }
    }
    if (order.size() != combCount) {
        std::string names;
        for (int i = 0; i < n; ++i) {
            if (spec.comps[i].kind != CompKind::Memory && indegree[i] > 0) {
                if (!names.empty())
                    names += ", ";
                names += spec.name(spec.comps[i].name);
            }
        }
        throw SpecError("Error. Circular dependency with " + names + ".");
    }
    return order;
}

/** orderCombinational's order, or its error text. */
template <class F>
std::string
outcome(F order)
{
    try {
        std::string out;
        for (int i : order())
            out += std::to_string(i) + ' ';
        return out;
    } catch (const SpecError &e) {
        return e.what();
    }
}

/** 300 seeds of acyclic specs of up to 80 components, six of several
 *  thousand (the ready set spans many words), and 120 cyclic specs:
 *  the same order, or the same error text with the same names in the
 *  same order, as the reference. */
TEST(Depgraph, OrderMatchesReferenceKahnOnRandomSpecs)
{
    int cycles = 0;
    for (uint32_t seed = 0; seed < 420; ++seed) {
        std::mt19937 rng(seed * 7919u + 1);
        const bool cyclic = seed >= 300;
        const int comb = seed % 50 == 7 ? 4000 + static_cast<int>(rng() % 4000)
                                        : (cyclic ? 1 : 0) +
                                              static_cast<int>(rng() % 80);
        const int mems = 1 + static_cast<int>(rng() % 6);
        const Spec spec = parseSpec(randomSpec(seed, comb, mems, cyclic));
        const std::string want =
            outcome([&] { return referenceOrder(spec); });
        const std::string got =
            outcome([&] { return orderCombinational(spec); });
        EXPECT_EQ(got, want) << "seed " << seed;
        cycles += want.rfind("Error. Circular dependency with ", 0) == 0;
    }
    EXPECT_EQ(cycles, 120);
}

} // namespace
} // namespace asim

/** @file Unit tests for semantic resolution. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "lang/writer.hh"
#include "machines/synthetic.hh"
#include "support/serialize.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

TEST(Resolve, SlotsAndIndexes)
{
    ResolvedSpec rs = resolveText("# slots\n"
                                  "a s m n .\n"
                                  "A a 4 1 1\n"
                                  "S s a.0 1 2\n"
                                  "M m 0 a 1 4\n"
                                  "M n 0 s 1 8\n"
                                  ".\n");
    EXPECT_EQ(rs.numVarSlots, 2);
    EXPECT_EQ(rs.varSlot("a"), 0);
    EXPECT_EQ(rs.varSlot("s"), 1);
    EXPECT_EQ(rs.varSlot("m"), -1);
    EXPECT_EQ(rs.memIndex("m"), 0);
    EXPECT_EQ(rs.memIndex("n"), 1);
    EXPECT_EQ(rs.memIndex("a"), -1);
    ASSERT_EQ(rs.mems.size(), 2u);
    EXPECT_EQ(rs.mems[0].size, 4);
    EXPECT_EQ(rs.mems[1].size, 8);
}

TEST(Resolve, ConstantFunctDetected)
{
    ResolvedSpec rs = resolveText("# funct\n"
                                  "add dyn m .\n"
                                  "A add 4 m 1\n"
                                  "A dyn m.0.2 m 1\n"
                                  "M m 0 add 1 2\n"
                                  ".\n");
    const CombComp *add = nullptr, *dyn = nullptr;
    for (const auto &c : rs.comb) {
        if (rs.name(c.name) == "add")
            add = &c;
        if (rs.name(c.name) == "dyn")
            dyn = &c;
    }
    ASSERT_NE(add, nullptr);
    ASSERT_NE(dyn, nullptr);
    EXPECT_TRUE(add->functConst);
    EXPECT_EQ(add->functValue, 4);
    EXPECT_FALSE(dyn->functConst);
}

TEST(Resolve, ConstFunctOutOfRangeThrows)
{
    EXPECT_THROW(resolveText("# bad funct\n"
                             "a .\n"
                             "A a 99 1 1\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, DuplicateDefinitionThrows)
{
    EXPECT_THROW(resolveText("# dup\n"
                             "a .\n"
                             "A a 4 1 1\n"
                             "A a 4 2 2\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, UnknownReferenceThrows)
{
    EXPECT_THROW(resolveText("# unknown\n"
                             "a .\n"
                             "A a 4 ghost 1\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, CheckdclWarnings)
{
    Diagnostics diag;
    resolveText("# warn\n"
                "declared defined .\n"
                "A defined 4 1 1\n"
                "A extra 4 1 1\n"
                ".\n",
                &diag);
    ASSERT_EQ(diag.warnings().size(), 2u);
    EXPECT_NE(diag.warnings()[0].find("declared but not defined"),
              std::string::npos);
    EXPECT_NE(diag.warnings()[1].find("defined but not declared"),
              std::string::npos);
}

/** The whole checkdcl output, text and order, on one spec that hits
 *  every case: an undefined name declared twice, undeclared
 *  components defined out of alphabetical order (an ALU, then a
 *  memory), a starred declaration that is never defined, and a module
 *  instance whose expanded names are declared for it. */
TEST(Resolve, CheckdclWarningsExactTextAndOrder)
{
    Diagnostics diag;
    ResolvedSpec rs = resolveText("# checkdcl\n"
                                  "ghost x y* ghost phantom* .\n"
                                  "A x 4 1 1\n"
                                  "D inc a out .\n"
                                  "A tmp 4 a 1\n"
                                  "A out 4 tmp 1\n"
                                  "E\n"
                                  "U u1 inc x y\n"
                                  "A zeta 4 x 1\n"
                                  "M alpha 0 zeta 1 4\n"
                                  ".\n",
                                  &diag);
    const std::vector<std::string> expected = {
        "Warning: ghost declared but not defined.",
        "Warning: ghost declared but not defined.",
        "Warning: phantom declared but not defined.",
        "Warning: zeta defined but not declared.",
        "Warning: alpha defined but not declared.",
        "Warning: phantom traced but not defined.",
    };
    EXPECT_EQ(diag.warnings(), expected);

    // The instance's internal component joined the declaration list,
    // untraced; its port actual `y` kept the user's star.
    const std::vector<std::pair<std::string, bool>> decls = {
        {"ghost", false}, {"x", false},       {"y", true},
        {"ghost", false}, {"phantom", true},  {"u1tmp", false},
    };
    const Spec ast = rs.ast();
    std::vector<std::pair<std::string, bool>> got;
    for (const DeclName &d : ast.decls)
        got.emplace_back(ast.name(d.name), d.traced);
    EXPECT_EQ(got, decls);
    ASSERT_EQ(rs.traceList.size(), 1u);
    EXPECT_EQ(rs.name(rs.traceList[0].name), "y");
}

/** Median wall time of three parse + resolve passes with a
 *  Diagnostics, as every Simulation load runs them. */
double
medianLoadSeconds(const std::string &text)
{
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
        Diagnostics diag;
        const auto t0 = std::chrono::steady_clock::now();
        ResolvedSpec rs = resolve(parseSpec(text, &diag), &diag);
        runs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
        EXPECT_TRUE(diag.clean());
        EXPECT_GT(rs.numVarSlots, 0);
    }
    std::sort(runs.begin(), runs.end());
    return runs[1];
}

/** A chain of `instances` uses of a 3-component module. */
std::string
moduleChainText(int instances)
{
    std::string text = "# module chain\n"
                       "o0 .\n"
                       "A o0 4 1 1\n"
                       "D cell in out .\n"
                       "A p 4 in 1\n"
                       "A q 2 p in\n"
                       "A out 4 q 1\n"
                       "E\n";
    for (int k = 1; k <= instances; ++k) {
        text += "U u" + std::to_string(k) + " cell o" +
                std::to_string(k - 1) + " o" + std::to_string(k) + "\n";
    }
    return text + ".\n";
}

/** The regression guard for the load path: 8x the components must
 *  cost about 8x the time, not 64x. A per-name linear scan anywhere
 *  between spec text and ResolvedSpec (the declaration cross-check,
 *  module expansion's auto-declare) makes the ratio quadratic. */
TEST(Resolve, LoadScalesLinearly)
{
    // 4k and 32k components: below ~16k a quadratic scan still runs
    // from cache and its ratio can sit near the bound.
    const double small =
        medianLoadSeconds(generateSyntheticText(syntheticPreset("4000")));
    const double large =
        medianLoadSeconds(generateSyntheticText(syntheticPreset("32000")));
    RecordProperty("synthetic_ratio", std::to_string(large / small));
    EXPECT_LT(large / small, 24.0)
        << "synthetic 4k: " << small << "s, 32k: " << large
        << "s — a quadratic per-name scan is back?";

    const double fewUses = medianLoadSeconds(moduleChainText(1000));
    const double manyUses = medianLoadSeconds(moduleChainText(8000));
    RecordProperty("module_ratio", std::to_string(manyUses / fewUses));
    EXPECT_LT(manyUses / fewUses, 24.0)
        << "1000 module uses: " << fewUses << "s, 8000: " << manyUses
        << "s — a quadratic per-name scan is back?";
}

TEST(Resolve, InitCountMismatchThrows)
{
    // parser enforces exact counts via the -N form; resolve re-checks.
    Spec s = parseSpec("# init\n"
                       "m .\n"
                       "M m 0 0 0 -2 7 9\n"
                       ".\n");
    s.initPool.push_back(11); // corrupt: 3 values, size 2
    ++s.comps[0].numInit;
    EXPECT_THROW(resolve(s), SpecError);
}

TEST(Resolve, TraceListInDeclOrder)
{
    ResolvedSpec rs = resolveText("# trace\n"
                                  "z* a* m* .\n"
                                  "A a 4 1 1\n"
                                  "A z 4 a 1\n"
                                  "M m 0 a 1 1\n"
                                  ".\n");
    ASSERT_EQ(rs.traceList.size(), 3u);
    EXPECT_EQ(rs.name(rs.traceList[0].name), "z");
    EXPECT_EQ(rs.name(rs.traceList[1].name), "a");
    EXPECT_EQ(rs.name(rs.traceList[2].name), "m");
    EXPECT_EQ(rs.traceList[2].slot, rs.latchSlot(rs.memIndex("m")));
}

TEST(Resolve, TracedButUndefinedSkippedWithWarning)
{
    Diagnostics diag;
    ResolvedSpec rs = resolveText("# ghost trace\n"
                                  "ghost* a .\n"
                                  "A a 4 1 1\n"
                                  ".\n",
                                  &diag);
    EXPECT_TRUE(rs.traceList.empty());
    ASSERT_GE(diag.warnings().size(), 1u);
}

TEST(Resolve, TraceModesFromConstantOps)
{
    ResolvedSpec rs =
        resolveText("# tmodes\n"
                    "w r plain m .\n"
                    "A plain 4 1 1\n"
                    "M w 0 plain 5 1\n"   // write + trace-writes
                    "M r 0 plain 8 1\n"   // read + trace-reads
                    "M m 0 plain 1 1\n"   // plain write
                    ".\n");
    EXPECT_EQ(rs.mems[0].traceWrites, MemDesc::TraceMode::Always);
    EXPECT_EQ(rs.mems[0].traceReads, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceReads, MemDesc::TraceMode::Always);
    EXPECT_EQ(rs.mems[2].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[2].traceReads, MemDesc::TraceMode::Never);
}

TEST(Resolve, TraceModesFromDynamicOps)
{
    ResolvedSpec rs =
        resolveText("# dyn tmodes\n"
                    "narrow wide m .\n"
                    "A narrow 4 1 1\n"
                    "A wide 4 1 1\n"
                    "M narrow2 0 narrow narrow.0.1 1\n" // 2 bits
                    "M wide2 0 wide wide.0.3 1\n"       // 4 bits
                    "M m 0 narrow 1 1\n"
                    ".\n");
    EXPECT_EQ(rs.mems[0].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[0].traceReads, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceWrites, MemDesc::TraceMode::Runtime);
    EXPECT_EQ(rs.mems[1].traceReads, MemDesc::TraceMode::Runtime);
}

/** The identity hash is the checkpoint identity and half the native
 *  build cache key: these values were measured before resolve stopped
 *  keeping a syntax tree and before the writer moved off ostream, and
 *  any byte the canonical text gains or loses changes them. Every
 *  spec under specs/ must be pinned here. */
TEST(Resolve, IdentityHashPinned)
{
    const std::map<std::string, uint64_t> pinned = {
        {"counter.asim", 469597745045971995u},
        {"dual_counter.asim", 4859352153907804380u},
        {"echo.asim", 12861504851001912476u},
        {"fig43_memory.asim", 3253564956109076478u},
        {"gcd.asim", 8119065542225923639u},
        {"multiplier.asim", 11153914813224244866u},
        {"traffic_light.asim", 17400974618435306059u},
    };
    size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() != ".asim")
            continue;
        const std::string name = entry.path().filename().string();
        SCOPED_TRACE(name);
        auto it = pinned.find(name);
        ASSERT_NE(it, pinned.end()) << "pin the identity of " << name;
        const ResolvedSpec rs = resolve(parseSpecFile(entry.path().string()));
        EXPECT_EQ(specIdentityHash(rs), it->second);
        EXPECT_EQ(writeSpec(rs.ast()), rs.text);
        ++seen;
    }
    EXPECT_EQ(seen, pinned.size());

    const ResolvedSpec rs = resolve(generateSynthetic(syntheticPreset("1k")));
    EXPECT_EQ(specIdentityHash(rs), 6511265788076881394u);
    EXPECT_EQ(writeSpec(rs.ast()), rs.text);
}

TEST(Resolve, KeepsHeaderFieldsAndCanonicalText)
{
    const std::string text = "#  header kept  \n"
                             "= $10\n"
                             "a* m .\n"
                             "A a 4 m.0.3 $7F\n"
                             "M m 0 a 1 -2 5 ^3\n"
                             ".\n";
    const Spec parsed = parseSpec(text);
    const ResolvedSpec rs = resolve(parsed);
    EXPECT_EQ(rs.comment, parsed.comment);
    EXPECT_EQ(rs.cycles, 16);
    EXPECT_TRUE(rs.cyclesSpecified);
    EXPECT_EQ(rs.thesisIterations(), 17);
    EXPECT_EQ(rs.text, writeSpec(parsed));
    EXPECT_EQ(specIdentityHash(rs), fnv1a64(rs.text));
    // Constants are canonical decimal in the text and in ast().
    EXPECT_NE(rs.text.find("A a 4 m.0.3 127\n"), std::string::npos)
        << rs.text;
    EXPECT_EQ(writeSpec(rs.ast()), rs.text);
    const Spec ast = rs.ast();
    EXPECT_TRUE(std::ranges::equal(ast.init(ast.comps[1]),
                                   std::vector<int32_t>{5, 8}));
}

/** "Too many bits" renders the expression from its terms: decimal
 *  text reads as written, other radixes in canonical decimal. */
TEST(Resolve, TooManyBitsMessage)
{
    auto messageFor = [](const std::string &expr) {
        try {
            resolveText("# bits\n"
                        "a b .\n"
                        "A a 4 1 1\n"
                        "A b 4 " + expr + " 1\n"
                        ".\n");
        } catch (const SpecError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(messageFor("a.0.20,a.0.20"),
              "Error. Too many bits in a.0.20,a.0.20.");
    EXPECT_EQ(messageFor("1.20,a.0.20"),
              "Error. Too many bits in 1.20,a.0.20.");
    EXPECT_EQ(messageFor("$7F.20,a.0.20"),
              "Error. Too many bits in 127.20,a.0.20.");
}

TEST(Resolve, CombSortedOrderExposed)
{
    ResolvedSpec rs = resolveText("# order\n"
                                  "a b .\n"
                                  "A a 4 b 1\n"
                                  "A b 4 1 1\n"
                                  ".\n");
    ASSERT_EQ(rs.comb.size(), 2u);
    EXPECT_EQ(rs.name(rs.comb[0].name), "b");
    EXPECT_EQ(rs.name(rs.comb[1].name), "a");
}

} // namespace
} // namespace asim

/** @file Unit tests for the specification parser. */

#include <gtest/gtest.h>

#include "lang/parser.hh"
#include "support/logging.hh"

namespace asim {
namespace {

const char *kCounter =
    "# 4-bit counter\n"
    "= 20\n"
    "count* next .\n"
    "A next 4 count.0.3 1\n"
    "M count 0 next 1 1\n"
    ".\n";

TEST(Parser, CounterSpec)
{
    Spec s = parseSpec(kCounter);
    EXPECT_EQ(s.comment, " 4-bit counter");
    EXPECT_TRUE(s.cyclesSpecified);
    EXPECT_EQ(s.cycles, 20);
    ASSERT_EQ(s.decls.size(), 2u);
    EXPECT_EQ(s.name(s.decls[0].name), "count");
    EXPECT_TRUE(s.decls[0].traced);
    EXPECT_FALSE(s.decls[1].traced);
    ASSERT_EQ(s.comps.size(), 2u);
    EXPECT_EQ(s.comps[0].kind, CompKind::Alu);
    EXPECT_EQ(s.name(s.comps[0].name), "next");
    EXPECT_EQ(s.comps[1].kind, CompKind::Memory);
    EXPECT_EQ(s.comps[1].memSize, 1);
    EXPECT_EQ(s.thesisIterations(), 21);
}

TEST(Parser, CommentRequired)
{
    EXPECT_THROW(parseSpec("no comment\nx .\n.\n"), SpecError);
    EXPECT_THROW(parseSpec(""), SpecError);
}

TEST(Parser, Macros)
{
    Spec s = parseSpec("# macros\n"
                       "-w 8\n"
                       "-pack #00,rom.~w\n"
                       "= 5\n"
                       "rom alu .\n"
                       "M rom 0 0 0 4\n"
                       "A alu 4 ~pack rom.~w\n"
                       ".\n");
    ASSERT_EQ(s.comps.size(), 2u);
    // ~pack expanded at definition time using ~w.
    EXPECT_EQ(exprToString(s, s.expr(s.comps[1], 1)), "#00,rom.8");
    EXPECT_EQ(exprToString(s, s.expr(s.comps[1], 2)), "rom.8");
}

TEST(Parser, SelectorCases)
{
    Spec s = parseSpec("# sel\n"
                       "s m .\n"
                       "S s m.0.1 10 20 30 40\n"
                       "M m 0 0 0 4\n"
                       ".\n");
    ASSERT_EQ(s.cases(s.comps[0]).size(), 4u);
    EXPECT_EQ(s.terms(s.cases(s.comps[0])[2])[0].value, 30);
}

TEST(Parser, MemoryWithInitValues)
{
    // Figure 4.3: M memory address data operation -4 12 34 56 78
    Spec s = parseSpec("# fig 4.3\n"
                       "memory address data operation .\n"
                       "A address 0 0 0\n"
                       "A data 0 0 0\n"
                       "A operation 0 0 0\n"
                       "M memory address data operation -4 12 34 56 78\n"
                       ".\n");
    const Component &m = s.comps[3];
    EXPECT_EQ(m.memSize, 4);
    ASSERT_EQ(s.init(m).size(), 4u);
    EXPECT_EQ(s.init(m)[0], 12);
    EXPECT_EQ(s.init(m)[3], 78);
}

TEST(Parser, ZeroSizeMemoryThrows)
{
    EXPECT_THROW(parseSpec("# bad\n"
                           "m .\n"
                           "M m 0 0 0 0\n"
                           ".\n"),
                 SpecError);
}

/** The error `parseSpec(text)` throws, or "" when it parses. */
std::string
parseError(const std::string &text)
{
    try {
        parseSpec(text);
    } catch (const SpecError &e) {
        return e.what();
    }
    return "";
}

TEST(Parser, MemorySizeBoundedWithoutWrap)
{
    const auto spec = [](const std::string &mems) {
        return "# big\nm n .\n" + mems + ".\n";
    };
    // Past the bound, on its own or added up, whatever the low 32
    // bits of the size would read (2 and 0 below), in either sign.
    for (const char *size :
         {"2147483647", "4294967298", "1099511627776", "-16777217",
          "^99999999999", "123456789012345678901234567890"}) {
        const std::string what =
            parseError(spec(std::string("M m 0 0 1 ") + size + "\n"));
        EXPECT_EQ(what.rfind("Error. Memory m takes", 0), 0u) << size;
        EXPECT_NE(what.find("16777216"), std::string::npos) << what;
    }
    EXPECT_EQ(parseError(spec("M m 0 0 1 16777216\n")), "");
    const std::string what = parseError(
        spec("M m 0 0 1 ^23\nM n 0 0 1 8388609\n"));
    EXPECT_EQ(what.rfind("Error. Memory n takes", 0), 0u) << what;
    EXPECT_EQ(parseSpec(spec("M m 0 0 1 $1000+^4\n")).comps[0].memSize,
              4096 + 16);
}

TEST(Parser, BadComponentLetter)
{
    EXPECT_THROW(parseSpec("# bad\n"
                           "x .\n"
                           "Q x 0 0 0\n"
                           ".\n"),
                 SpecError);
}

TEST(Parser, TruncatedComponentThrows)
{
    EXPECT_THROW(parseSpec("# bad\nx .\nA x 4 1\n"), SpecError);
}

TEST(Parser, InvalidNameThrows)
{
    EXPECT_THROW(parseSpec("# bad\n9name .\n.\n"), SpecError);
    EXPECT_THROW(parseSpec("# bad\nok .\nA 9x 0 0 0\n.\n"),
                 SpecError);
}

TEST(Parser, CyclesOptional)
{
    Spec s = parseSpec("# no cycles\nx .\nA x 0 0 0\n.\n");
    EXPECT_FALSE(s.cyclesSpecified);
}

TEST(Parser, SelectorWithNoCasesThrows)
{
    EXPECT_THROW(parseSpec("# bad\ns .\nS s 0\n.\n"), SpecError);
}

TEST(Parser, FindComponent)
{
    Spec s = parseSpec(kCounter);
    ASSERT_NE(s.find("next"), nullptr);
    EXPECT_EQ(s.find("next")->kind, CompKind::Alu);
    EXPECT_EQ(s.find("nosuch"), nullptr);
}

TEST(Parser, CommentsInsideComponentList)
{
    Spec s = parseSpec("# commented\n"
                       "a m .\n"
                       "A a 4 {the function} m 1 {the right operand}\n"
                       "M m 0 {addr} a 1 1\n"
                       ".\n");
    EXPECT_EQ(s.comps.size(), 2u);
}

TEST(Parser, ThesisStyleHeaderFragment)
{
    // A fragment shaped like the Appendix D opening, exercising
    // macros, '=' cycles, and the traced-name list together.
    Spec s = parseSpec("# Itty Bitty fragment\n"
                       "-k 0\n"
                       "-w 8\n"
                       "= 5545\n"
                       "state* rom ram .\n"
                       "S rom state.0.1 1 2 4 8\n"
                       "M state 0 rom.~k 1 1\n"
                       "M ram state.0.3 rom rom.~w 16\n"
                       ".\n");
    EXPECT_EQ(s.cycles, 5545);
    EXPECT_EQ(s.comps.size(), 3u);
    EXPECT_EQ(exprToString(s, s.expr(s.comps[1], 1)), "rom.0");
    EXPECT_EQ(exprToString(s, s.expr(s.comps[2], 2)), "rom.8");
}

} // namespace
} // namespace asim

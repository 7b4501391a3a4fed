/** @file Unit tests for the token scanner (thesis gettoken). */

#include <gtest/gtest.h>

#include <vector>

#include "lang/lexer.hh"
#include "support/logging.hh"

namespace asim {
namespace {

std::vector<std::string>
allTokens(Lexer &lex)
{
    std::vector<std::string> out;
    for (std::string_view t = lex.next(); !t.empty(); t = lex.next())
        out.emplace_back(t);
    return out;
}

TEST(Lexer, CommentLineThenTokens)
{
    Lexer lex("# hello world\na b c\n");
    EXPECT_EQ(lex.readCommentLine(), "# hello world");
    EXPECT_EQ(allTokens(lex),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Lexer, BraceCommentsAreWhitespace)
{
    Lexer lex("a {skip me} b{x}c\n{leading} d\n");
    EXPECT_EQ(allTokens(lex),
              (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(Lexer, TrailingDotSplits)
{
    // "count." ends a list: token then "."; "count.3" stays whole.
    Lexer lex("count. count.3 x.\n");
    EXPECT_EQ(allTokens(lex),
              (std::vector<std::string>{"count", ".", "count.3", "x",
                                        "."}));
}

TEST(Lexer, LoneDot)
{
    Lexer lex(". a .\n");
    EXPECT_EQ(allTokens(lex),
              (std::vector<std::string>{".", "a", "."}));
}

TEST(Lexer, MacroExpansionToggle)
{
    Lexer lex("rom.~w rom.~w\n");
    lex.macros().define("w", "8");
    // Off by default.
    EXPECT_EQ(lex.next(), "rom.~w");
    lex.setExpandMacros(true);
    EXPECT_EQ(lex.next(), "rom.8");
}

TEST(Lexer, UndefinedMacroThrows)
{
    Lexer lex("~zap\n");
    lex.setExpandMacros(true);
    EXPECT_THROW(lex.next(), SpecError);
}

TEST(Lexer, MacroInsideLongToken)
{
    Lexer lex("addr.~n,rom.~w\n");
    lex.macros().define("n", "12");
    lex.macros().define("w", "8");
    lex.setExpandMacros(true);
    EXPECT_EQ(lex.next(), "addr.12,rom.8");
}

/** Expansion may build a token up to kMaxTokenBytes, no longer: a
 *  chain of doubling definitions fails cleanly instead of exhausting
 *  memory. */
TEST(Lexer, MacroExpansionIsBounded)
{
    const std::string half(kMaxTokenBytes / 2, 'a');
    Lexer fits("~h~h\n");
    fits.macros().define("h", half);
    fits.setExpandMacros(true);
    EXPECT_EQ(fits.next().size(), kMaxTokenBytes);

    Lexer over("~h~h~h\n");
    over.macros().define("h", half);
    over.setExpandMacros(true);
    EXPECT_THROW(over.next(), SpecError);
}

TEST(Lexer, LineNumbers)
{
    Lexer lex("a\nb\n\nc\n");
    lex.next();
    EXPECT_EQ(lex.line(), 1);
    lex.next();
    EXPECT_EQ(lex.line(), 2);
    lex.next();
    EXPECT_EQ(lex.line(), 4);
}

TEST(Lexer, EmptyAtEof)
{
    Lexer lex("a");
    EXPECT_EQ(lex.next(), "a");
    EXPECT_EQ(lex.next(), "");
    EXPECT_EQ(lex.next(), "");
}

} // namespace
} // namespace asim

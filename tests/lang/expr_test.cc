/** @file Unit tests for expression parsing and Figure 3.1 semantics. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "lang/expr.hh"
#include "support/logging.hh"

namespace asim {
namespace {

TEST(Expr, SingleConst)
{
    Expr e = parseExpr("3048");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].kind, Term::Kind::Const);
    EXPECT_EQ(e.terms[0].value, 3048);
    EXPECT_EQ(e.terms[0].width, -1);
    EXPECT_TRUE(e.isConstant());
}

TEST(Expr, ConstWithWidth)
{
    Expr e = parseExpr("5.3");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].value, 5);
    EXPECT_EQ(e.terms[0].width, 3);
}

TEST(Expr, BitString)
{
    Expr e = parseExpr("#0101");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].kind, Term::Kind::BitString);
    EXPECT_EQ(e.terms[0].value, 5);
    EXPECT_EQ(e.terms[0].width, 4);
}

TEST(Expr, WholeRef)
{
    Expr e = parseExpr("count");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].kind, Term::Kind::Ref);
    EXPECT_EQ(e.terms[0].ref, "count");
    EXPECT_EQ(e.terms[0].from, -1);
    EXPECT_FALSE(e.isConstant());
}

TEST(Expr, SingleBit)
{
    Expr e = parseExpr("rom.8");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].from, 8);
    EXPECT_EQ(e.terms[0].to, -1);
}

TEST(Expr, BitRange)
{
    Expr e = parseExpr("mem.3.4");
    ASSERT_EQ(e.terms.size(), 1u);
    EXPECT_EQ(e.terms[0].from, 3);
    EXPECT_EQ(e.terms[0].to, 4);
}

TEST(Expr, Concatenation)
{
    Expr e = parseExpr("mem.3.4,#01,count.1");
    ASSERT_EQ(e.terms.size(), 3u);
    EXPECT_EQ(e.terms[0].ref, "mem");
    EXPECT_EQ(e.terms[1].kind, Term::Kind::BitString);
    EXPECT_EQ(e.terms[2].ref, "count");
}

TEST(Expr, NumberFormsInsideTerms)
{
    Expr e = parseExpr("%110,rom.8");
    ASSERT_EQ(e.terms.size(), 2u);
    EXPECT_EQ(e.terms[0].value, 6);
    EXPECT_EQ(e.terms[1].ref, "rom");

    Expr sum = parseExpr("128+3+^8");
    EXPECT_EQ(sum.terms[0].value, 387);
}

TEST(Expr, MalformedThrows)
{
    EXPECT_THROW(parseExpr(""), SpecError);
    EXPECT_THROW(parseExpr(","), SpecError);
    EXPECT_THROW(parseExpr("a,"), SpecError);
    EXPECT_THROW(parseExpr("mem.4.3"), SpecError);   // to < from
    EXPECT_THROW(parseExpr("mem.1.2.3"), SpecError); // too many dots
    EXPECT_THROW(parseExpr("#"), SpecError);
    EXPECT_THROW(parseExpr("#012"), SpecError);      // not binary
    EXPECT_THROW(parseExpr("mem..3"), SpecError);
    EXPECT_THROW(parseExpr("*x"), SpecError);
}

TEST(Expr, RoundTripToString)
{
    for (const char *text :
         {"mem.3.4,#01,count.1", "5.3", "rom", "a.1,b.2.4,#000"}) {
        Expr e = parseExpr(text);
        EXPECT_EQ(exprToString(e), text);
    }
}

/** A constant that wraps negative (`^31`, `$FFFFFFFF`) is written in
 *  decimal with a '-' and parses back to the same term. */
TEST(Expr, WrappedConstantRoundTrips)
{
    Expr e = parseExpr("^31,$FFFFFFFF.4");
    EXPECT_EQ(exprToString(e), "-2147483648,-1.4");
    EXPECT_EQ(parseExpr(exprToString(e)), e);
    EXPECT_THROW(parseExpr("-"), SpecError);
    EXPECT_THROW(parseExpr("-a"), SpecError);
    EXPECT_THROW(parseExpr("-1+2"), SpecError);
    EXPECT_THROW(parseExpr("-$FF"), SpecError);
}

TEST(Expr, ReferencedNames)
{
    Expr e = parseExpr("a.1,#01,b.2.3,c");
    auto names = referencedNames(e);
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

/** Resolution-level checks of the Figure 3.1 concatenation layout:
 *  `mem.3.4,#01,count.1` = [mem bits 3..4][0][1][count bit 1]. */
class Fig31 : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A tiny spec defining mem and count so resolution works.
        rs_ = resolveText("# fig 3.1 harness\n"
                          "mem count .\n"
                          "M mem 0 0 0 16\n"
                          "M count 0 0 0 1\n"
                          ".\n");
    }
    ResolvedSpec rs_;
};

TEST_F(Fig31, ConstantPartAndLayout)
{
    ResolvedExpr r = resolveExpr(parseExpr("mem.3.4,#01,count.1"), rs_);
    // #01 sits at bit positions 1..2 with value 01 -> constant 2.
    EXPECT_EQ(r.constTotal, 2);
    EXPECT_EQ(r.width, 5);
    ASSERT_EQ(r.terms.size(), 2u);
    // mem.3.4: mask bits 3..4, shifted to positions 3..4 (shift 0).
    EXPECT_EQ(r.terms[0].mask, 0b11000);
    EXPECT_EQ(r.terms[0].shift, 0);
    // count.1: mask bit 1, shifted down to position 0.
    EXPECT_EQ(r.terms[1].mask, 0b10);
    EXPECT_EQ(r.terms[1].shift, -1);
}

TEST_F(Fig31, TooManyBits)
{
    // 31 bits + 1 more overflows.
    EXPECT_THROW(resolveExpr(parseExpr("mem.0.15,mem.0.15"), rs_),
                 SpecError);
    EXPECT_THROW(resolveExpr(parseExpr("count.1,mem"), rs_),
                 SpecError);
    // Exactly 31 is fine.
    ResolvedExpr ok =
        resolveExpr(parseExpr("mem.0.15,mem.0.14"), rs_);
    EXPECT_EQ(ok.width, 31);
    // Faithful thesis quirk: a whole reference *sets* the bit counter
    // to 31 instead of adding, so `mem,count` is accepted (the second
    // term shifts off the top) — exactly what the 1986 expr() did.
    EXPECT_NO_THROW(resolveExpr(parseExpr("mem,count"), rs_));
}

TEST_F(Fig31, UnknownComponent)
{
    EXPECT_THROW(resolveExpr(parseExpr("nosuch.1"), rs_), SpecError);
}

TEST_F(Fig31, UnboundedConstConsumesRest)
{
    // `1,count.1,count.2`: constant 1 shifted past two 1-bit fields.
    ResolvedExpr r =
        resolveExpr(parseExpr("1,count.1,count.2"), rs_);
    EXPECT_EQ(r.constTotal, 4);
    EXPECT_EQ(r.width, 31);
}

} // namespace
} // namespace asim

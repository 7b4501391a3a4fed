/** @file Unit tests for expression parsing and Figure 3.1 semantics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "analysis/resolve.hh"
#include "lang/ast.hh"
#include "lang/expr.hh"
#include "support/logging.hh"

namespace asim {
namespace {

/** Parse `text` into a fresh spec of its own. */
struct Parsed
{
    explicit Parsed(std::string_view text) : e(parseExpr(text, spec)) {}
    std::span<const Term> terms() const { return spec.terms(e); }
    std::string_view name(size_t i) const
    {
        return spec.name(terms()[i].ref);
    }
    Spec spec;
    Expr e;
};

TEST(Expr, SingleConst)
{
    Parsed p("3048");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].kind, Term::Kind::Const);
    EXPECT_EQ(p.terms()[0].value, 3048);
    EXPECT_EQ(p.terms()[0].width, -1);
    EXPECT_TRUE(isConstant(p.spec, p.e));
}

TEST(Expr, ConstWithWidth)
{
    Parsed p("5.3");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].value, 5);
    EXPECT_EQ(p.terms()[0].width, 3);
}

TEST(Expr, BitString)
{
    Parsed p("#0101");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].kind, Term::Kind::BitString);
    EXPECT_EQ(p.terms()[0].value, 5);
    EXPECT_EQ(p.terms()[0].width, 4);
}

TEST(Expr, WholeRef)
{
    Parsed p("count");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].kind, Term::Kind::Ref);
    EXPECT_EQ(p.name(0), "count");
    EXPECT_EQ(p.terms()[0].from, -1);
    EXPECT_FALSE(isConstant(p.spec, p.e));
}

TEST(Expr, SingleBit)
{
    Parsed p("rom.8");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].from, 8);
    EXPECT_EQ(p.terms()[0].to, -1);
}

TEST(Expr, BitRange)
{
    Parsed p("mem.3.4");
    ASSERT_EQ(p.terms().size(), 1u);
    EXPECT_EQ(p.terms()[0].from, 3);
    EXPECT_EQ(p.terms()[0].to, 4);
}

TEST(Expr, Concatenation)
{
    Parsed p("mem.3.4,#01,count.1");
    ASSERT_EQ(p.terms().size(), 3u);
    EXPECT_EQ(p.name(0), "mem");
    EXPECT_EQ(p.terms()[1].kind, Term::Kind::BitString);
    EXPECT_EQ(p.name(2), "count");
}

TEST(Expr, NumberFormsInsideTerms)
{
    Parsed p("%110,rom.8");
    ASSERT_EQ(p.terms().size(), 2u);
    EXPECT_EQ(p.terms()[0].value, 6);
    EXPECT_EQ(p.name(1), "rom");

    Parsed sum("128+3+^8");
    EXPECT_EQ(sum.terms()[0].value, 387);
}

TEST(Expr, MalformedThrows)
{
    auto parse = [](std::string_view text) { Parsed p(text); };
    EXPECT_THROW(parse(""), SpecError);
    EXPECT_THROW(parse(","), SpecError);
    EXPECT_THROW(parse("a,"), SpecError);
    EXPECT_THROW(parse("mem.4.3"), SpecError);   // to < from
    EXPECT_THROW(parse("mem.1.2.3"), SpecError); // too many dots
    EXPECT_THROW(parse("#"), SpecError);
    EXPECT_THROW(parse("#012"), SpecError);      // not binary
    EXPECT_THROW(parse("mem..3"), SpecError);
    EXPECT_THROW(parse("*x"), SpecError);
}

TEST(Expr, RoundTripToString)
{
    for (const char *text :
         {"mem.3.4,#01,count.1", "5.3", "rom", "a.1,b.2.4,#000"}) {
        Parsed p(text);
        EXPECT_EQ(exprToString(p.spec, p.e), text);
    }
}

/** A constant that wraps negative (`^31`, `$FFFFFFFF`) is written in
 *  decimal with a '-' and parses back to the same term. */
TEST(Expr, WrappedConstantRoundTrips)
{
    Parsed p("^31,$FFFFFFFF.4");
    EXPECT_EQ(exprToString(p.spec, p.e), "-2147483648,-1.4");
    Parsed back(exprToString(p.spec, p.e));
    EXPECT_TRUE(std::ranges::equal(back.terms(), p.terms()));
    auto parse = [](std::string_view text) { Parsed q(text); };
    EXPECT_THROW(parse("-"), SpecError);
    EXPECT_THROW(parse("-a"), SpecError);
    EXPECT_THROW(parse("-1+2"), SpecError);
    EXPECT_THROW(parse("-$FF"), SpecError);
}

TEST(Expr, ReferencedNames)
{
    Parsed p("a.1,#01,b.2.3,c");
    auto names = referencedNames(p.spec, p.e);
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

/** A term is 8 bytes and names its component by id: one spec holds
 *  every distinct name once, whatever the number of references. */
TEST(Expr, TermsAreCompactAndNamesInterned)
{
    static_assert(sizeof(Term) <= 16);
    static_assert(sizeof(ResolvedTerm) <= 12);
    Parsed p("a.1,a.2,b,a.0.3");
    ASSERT_EQ(p.terms().size(), 4u);
    EXPECT_EQ(p.terms()[0].ref, p.terms()[1].ref);
    EXPECT_EQ(p.terms()[0].ref, p.terms()[3].ref);
    EXPECT_NE(p.terms()[0].ref, p.terms()[2].ref);
    EXPECT_EQ(p.spec.names.size(), 2u);
}

/** A bit string wider than any expression is refused at parse time
 *  with the resolver's own error. */
TEST(Expr, OverlongBitStringIsTooManyBits)
{
    Parsed ok("#" + std::string(31, '1'));
    EXPECT_EQ(ok.terms()[0].width, 31);
    try {
        Parsed p("#" + std::string(32, '1'));
        FAIL() << "32-digit bit string accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "Error. Too many bits in #" + std::string(32, '1') + ".");
    }
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
    /** Resolve `text` against rs_; its terms land in rs_'s pool. */
    ResolvedExpr
    resolve(std::string_view text)
    {
        Expr e = parseExpr(text, scratch_);
        return resolveExpr(scratch_, e, rs_);
    }
    std::span<const ResolvedTerm> terms(const ResolvedExpr &r) const
    {
        return rs_.terms(r);
    }

    ResolvedSpec rs_;
    Spec scratch_;
};

TEST_F(Fig31, ConstantPartAndLayout)
{
    ResolvedExpr r = resolve("mem.3.4,#01,count.1");
    // #01 sits at bit positions 1..2 with value 01 -> constant 2.
    EXPECT_EQ(r.constTotal, 2);
    EXPECT_EQ(r.width, 5);
    ASSERT_EQ(terms(r).size(), 2u);
    // mem.3.4: mask bits 3..4, shifted to positions 3..4 (shift 0).
    EXPECT_EQ(terms(r)[0].mask, 0b11000);
    EXPECT_EQ(terms(r)[0].shift, 0);
    // count.1: mask bit 1, shifted down to position 0.
    EXPECT_EQ(terms(r)[1].mask, 0b10);
    EXPECT_EQ(terms(r)[1].shift, -1);
}

TEST_F(Fig31, TooManyBits)
{
    // 31 bits + 1 more overflows.
    EXPECT_THROW(resolve("mem.0.15,mem.0.15"), SpecError);
    EXPECT_THROW(resolve("count.1,mem"), SpecError);
    // Exactly 31 is fine.
    ResolvedExpr ok = resolve("mem.0.15,mem.0.14");
    EXPECT_EQ(ok.width, 31);
    // Faithful thesis quirk: a whole reference *sets* the bit counter
    // to 31 instead of adding, so `mem,count` is accepted (the second
    // term shifts off the top) — exactly what the 1986 expr() did.
    EXPECT_NO_THROW(resolve("mem,count"));
}

TEST_F(Fig31, UnknownComponent)
{
    EXPECT_THROW(resolve("nosuch.1"), SpecError);
}

TEST_F(Fig31, UnboundedConstConsumesRest)
{
    // `1,count.1,count.2`: constant 1 shifted past two 1-bit fields.
    ResolvedExpr r = resolve("1,count.1,count.2");
    EXPECT_EQ(r.constTotal, 4);
    EXPECT_EQ(r.width, 31);
}

} // namespace
} // namespace asim

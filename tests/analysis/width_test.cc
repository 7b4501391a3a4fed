/** @file Unit tests for bit-width analysis (thesis numberofbits). */

#include <gtest/gtest.h>

#include "analysis/width.hh"
#include "lang/ast.hh"

namespace asim {
namespace {

int
w(const char *text)
{
    Spec s;
    return widthOf(s.terms(parseExpr(text, s)));
}

TEST(Width, Constants)
{
    EXPECT_EQ(w("5"), 31);     // unbounded constant
    EXPECT_EQ(w("5.3"), 3);    // explicit width
    EXPECT_EQ(w("#0101"), 4);  // bit string
    EXPECT_EQ(w("#0"), 1);
}

TEST(Width, Refs)
{
    EXPECT_EQ(w("rom"), 31);
    EXPECT_EQ(w("rom.8"), 1);
    EXPECT_EQ(w("rom.3.4"), 2);
    EXPECT_EQ(w("rom.0.11"), 12);
}

TEST(Width, Concatenation)
{
    EXPECT_EQ(w("mem.3.4,#01,count.1"), 5);
    EXPECT_EQ(w("a.0.7,b.0.7"), 16);
    EXPECT_EQ(w("a,b.0.1"), 31); // whole ref saturates
}

TEST(Width, CapsAt31)
{
    EXPECT_EQ(w("a.0.20,b.0.20"), 31);
}

TEST(Width, GatesTraceBits)
{
    // The thesis emits write-trace code when numberofbits >= 3 and
    // read-trace code when >= 4.
    EXPECT_LT(w("addr.12,rom.8"), 3); // 2 bits: no trace possible
    EXPECT_GE(w("addr.0.2"), 3);      // could carry bit 2
    EXPECT_GE(w("op.0.3"), 4);        // could carry bit 3
}

} // namespace
} // namespace asim

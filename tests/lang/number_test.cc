/** @file Unit tests for the ASIM II number grammar (thesis str2num). */

#include <gtest/gtest.h>

#include <ostream>

#include "lang/number.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {
namespace {

TEST(Number, Decimal)
{
    EXPECT_EQ(parseNumber("0"), 0);
    EXPECT_EQ(parseNumber("7"), 7);
    EXPECT_EQ(parseNumber("128"), 128);
    EXPECT_EQ(parseNumber("2147483647"), 2147483647);
}

TEST(Number, Hex)
{
    EXPECT_EQ(parseNumber("$0"), 0);
    EXPECT_EQ(parseNumber("$A"), 10);
    EXPECT_EQ(parseNumber("$7F"), 127);
    EXPECT_EQ(parseNumber("$FF"), 255);
    EXPECT_EQ(parseNumber("$5D"), 93); // thesis: ldc 93=$5d
}

TEST(Number, Binary)
{
    EXPECT_EQ(parseNumber("%0"), 0);
    EXPECT_EQ(parseNumber("%1"), 1);
    EXPECT_EQ(parseNumber("%1101"), 13);
    EXPECT_EQ(parseNumber("%0100"), 4);
    EXPECT_EQ(parseNumber("%0001"), 1);
}

TEST(Number, PowerOfTwo)
{
    EXPECT_EQ(parseNumber("^0"), 1);
    EXPECT_EQ(parseNumber("^3"), 8);
    EXPECT_EQ(parseNumber("^12"), 4096);
    EXPECT_EQ(parseNumber("^30"), 1 << 30);
}

TEST(Number, Sums)
{
    // The thesis decode ROM uses sums like 128+3+^8 (= 387).
    EXPECT_EQ(parseNumber("128+3+^8"), 387);
    EXPECT_EQ(parseNumber("0+^5+^7+^8"), 32 + 128 + 256);
    EXPECT_EQ(parseNumber("16+^5+^7+^8"), 16 + 32 + 128 + 256);
    EXPECT_EQ(parseNumber("%10+$10+2"), 2 + 16 + 2);
}

TEST(Number, PowerOfTwoIsTheWrappingDoublingLoop)
{
    // str2num's loop, which the closed form replaces: 1 doubled e
    // times in the 32-bit datapath.
    int32_t v = 1;
    for (int e = 0; e <= 64; ++e) {
        EXPECT_EQ(parseNumber("^" + std::to_string(e)), v) << e;
        v = wmul(v, 2);
    }
    // A hostile exponent returns at once instead of looping.
    EXPECT_EQ(parseNumber("^99999999999"), 0);
    EXPECT_EQ(parseNumber("^" + std::string(400, '9')), 0);
}

TEST(Number, LongLiteralsKeepTheirLow32Bits)
{
    // Literals too long for any integer type build up modulo 2^32.
    EXPECT_EQ(parseNumber("4294967296"), 0);
    EXPECT_EQ(parseNumber("4294967298"), 2);
    EXPECT_EQ(parseNumber("123456789012345678901234567890"),
              0x4E3F0AD2);
    EXPECT_EQ(parseNumber("$123456789ABCDEF"),
              static_cast<int32_t>(0x89ABCDEFu));
    EXPECT_EQ(parseNumber("%1" + std::string(40, '0') + "101"), 5);
    // A size never wraps: it saturates far past any bound instead.
    EXPECT_EQ(parseSignedNumber("4294967298"), 4294967298);
    EXPECT_EQ(parseSignedNumber("-1099511627776"), -1099511627776);
    EXPECT_EQ(parseSignedNumber("^99999999999"), int64_t{1} << 62);
    EXPECT_EQ(parseSignedNumber(std::string(40, '9')), int64_t{1} << 62);
}

TEST(Number, SignedSizes)
{
    EXPECT_EQ(parseSignedNumber("-133"), -133);
    EXPECT_EQ(parseSignedNumber("-4"), -4);
    EXPECT_EQ(parseSignedNumber("4096"), 4096);
}

TEST(Number, MalformedThrows)
{
    EXPECT_THROW(parseNumber(""), SpecError);
    EXPECT_THROW(parseNumber("abc"), SpecError);
    EXPECT_THROW(parseNumber("12a"), SpecError);
    EXPECT_THROW(parseNumber("$"), SpecError);
    EXPECT_THROW(parseNumber("$G"), SpecError);
    EXPECT_THROW(parseNumber("%"), SpecError);
    EXPECT_THROW(parseNumber("%12"), SpecError);
    EXPECT_THROW(parseNumber("^"), SpecError);
    EXPECT_THROW(parseNumber("^x"), SpecError);
    EXPECT_THROW(parseNumber("1+"), SpecError);
    EXPECT_THROW(parseNumber("+1"), SpecError);
    EXPECT_THROW(parseNumber("1++2"), SpecError);
    // Lower-case hex digits are not in the thesis grammar.
    EXPECT_THROW(parseNumber("$ff"), SpecError);
}

TEST(Number, IsNumberPredicate)
{
    EXPECT_TRUE(isNumber("42"));
    EXPECT_TRUE(isNumber("%101+^2"));
    EXPECT_FALSE(isNumber("count"));
    EXPECT_FALSE(isNumber(""));
}

TEST(Number, NumericTextPredicate)
{
    // Mirrors the thesis numeric() used to gate optimization.
    EXPECT_TRUE(isNumericText("4"));
    EXPECT_TRUE(isNumericText("$7F"));
    EXPECT_TRUE(isNumericText("%110"));
    EXPECT_FALSE(isNumericText("left"));
    EXPECT_FALSE(isNumericText(""));
    EXPECT_FALSE(isNumericText("4,rom"));
}

struct WrapCase
{
    const char *text;
    int32_t expect;
};

// Names each case by its text; the default printer would dump the raw
// bytes (a pointer and padding), which change from run to run.
void
PrintTo(const WrapCase &c, std::ostream *os)
{
    *os << c.text;
}

class NumberWrap : public ::testing::TestWithParam<WrapCase>
{};

TEST_P(NumberWrap, WrapsLikeInt32)
{
    EXPECT_EQ(parseNumber(GetParam().text), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Overflow, NumberWrap,
    ::testing::Values(
        WrapCase{"^31", INT32_MIN},                   // 2^31 wraps
        WrapCase{"^31+^31", 0},                       // wraps to zero
        WrapCase{"2147483647+1", INT32_MIN},
        WrapCase{"^30+^30", INT32_MIN}));

} // namespace
} // namespace asim

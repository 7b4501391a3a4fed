/** @file Unit tests for text helpers. */

#include <gtest/gtest.h>

#include "support/text.hh"

#include <cstdint>

namespace asim {
namespace {

TEST(Text, CharClasses)
{
    EXPECT_TRUE(isLetter('a'));
    EXPECT_TRUE(isLetter('Z'));
    EXPECT_FALSE(isLetter('1'));
    EXPECT_FALSE(isLetter('_'));
    EXPECT_TRUE(isDigit('0'));
    EXPECT_FALSE(isDigit('a'));
    EXPECT_TRUE(isHexDigit('F'));
    EXPECT_FALSE(isHexDigit('f')); // thesis hex is upper-case only
    EXPECT_FALSE(isHexDigit('G'));
}

TEST(Text, ValidNames)
{
    EXPECT_TRUE(isValidName("count"));
    EXPECT_TRUE(isValidName("alu2"));
    EXPECT_TRUE(isValidName("A"));
    EXPECT_FALSE(isValidName(""));
    EXPECT_FALSE(isValidName("2alu"));
    EXPECT_FALSE(isValidName("a_b"));
    EXPECT_FALSE(isValidName("a.b"));
}

TEST(Text, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Text, StartsWithContains)
{
    EXPECT_TRUE(startsWith("abcdef", "abc"));
    EXPECT_FALSE(startsWith("ab", "abc"));
    EXPECT_TRUE(contains("hello world", "lo w"));
    EXPECT_FALSE(contains("hello", "xyz"));
}

TEST(Text, CountOccurrences)
{
    EXPECT_EQ(countOccurrences("aaa", "a"), 3);
    EXPECT_EQ(countOccurrences("aaaa", "aa"), 2);
    EXPECT_EQ(countOccurrences("abc", "x"), 0);
    EXPECT_EQ(countOccurrences("abc", ""), 0);
}

TEST(Text, StrictNumbers)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseU64("0x1F"), 31u);
    EXPECT_EQ(parseU64("0Xff"), 255u);
    EXPECT_EQ(parseU64("010"), 10u);
    EXPECT_EQ(parseU64("7", 7), 7u);
    for (const char *bad : {"", "abc", "5x", "-1", "+5", " 5", "5 ", "0x",
                            "18446744073709551616", "1e3"})
        EXPECT_EQ(parseU64(bad), std::nullopt) << bad;
    EXPECT_EQ(parseU64("8", 7), std::nullopt);

    EXPECT_EQ(parsePositiveCount("1"), 1u);
    EXPECT_EQ(parsePositiveCount("0"), std::nullopt);
    EXPECT_EQ(parsePositiveCount("4294967297", UINT32_MAX), std::nullopt);

    EXPECT_EQ(parseI32("-1"), -1);
    EXPECT_EQ(parseI32("2147483647"), INT32_MAX);
    EXPECT_EQ(parseI32("-2147483648"), INT32_MIN);
    EXPECT_EQ(parseI32("-0x10"), -16);
    for (const char *bad : {"", "-", "--1", "2147483648", "-2147483649",
                            "4294967295", "1.5"})
        EXPECT_EQ(parseI32(bad), std::nullopt) << bad;

    EXPECT_EQ(parsePort("0"), 0);
    EXPECT_EQ(parsePort("65535"), 65535);
    EXPECT_EQ(parsePort("65536"), std::nullopt);
    EXPECT_EQ(parsePort("-1"), std::nullopt);
}

TEST(Text, ComponentValue)
{
    auto cv = parseComponentValue("cnt:30");
    ASSERT_TRUE(cv);
    EXPECT_EQ(cv->component, "cnt");
    EXPECT_EQ(cv->value, 30);
    cv = parseComponentValue("a:-0x2");
    ASSERT_TRUE(cv);
    EXPECT_EQ(cv->value, -2);
    for (const char *bad : {"", "cnt", ":5", "cnt:", "cnt:5x", "5x"})
        EXPECT_FALSE(parseComponentValue(bad)) << bad;
}

TEST(Text, JsonEscapeIsLossless)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("C:\\dir"), "C:\\\\dir");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape(std::string("nul\0", 4)), "nul\\u0000");
    EXPECT_EQ(jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9"); // DEL, UTF-8 kept
}

} // namespace
} // namespace asim

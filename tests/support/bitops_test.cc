/** @file Unit tests for the bit-level value model. */

#include <gtest/gtest.h>

#include "support/bitops.hh"

namespace asim {
namespace {

TEST(Bitops, Land)
{
    EXPECT_EQ(land(0b1100, 0b1010), 0b1000);
    EXPECT_EQ(land(-1, kValueMask), kValueMask);
    EXPECT_EQ(land(-2, 0x7fffffff), 0x7ffffffe);
    EXPECT_EQ(land(0, 12345), 0);
}

TEST(Bitops, Highbit)
{
    EXPECT_EQ(highbit(0), 1);
    EXPECT_EQ(highbit(5), 32);
    EXPECT_EQ(highbit(30), 1 << 30);
    EXPECT_EQ(highbit(31), INT32_MIN);
}

TEST(Bitops, MaskBits)
{
    EXPECT_EQ(maskBits(0, 0), 1);
    EXPECT_EQ(maskBits(3, 4), 0b11000);
    EXPECT_EQ(maskBits(0, 11), 4095);
    EXPECT_EQ(maskBits(12, 12), 4096);
    EXPECT_EQ(maskBits(0, 30), kValueMask);
}

TEST(Bitops, MaskBitsMatchesBitLoop)
{
    // Every field the grammar allows, and every empty range, against
    // the mask built one bit at a time.
    for (int from = 0; from <= 31; ++from) {
        for (int to = 0; to <= 31; ++to) {
            uint32_t want = 0;
            for (int b = from; b <= to; ++b)
                want |= uint32_t{1} << b;
            EXPECT_EQ(maskBits(from, to), static_cast<int32_t>(want))
                << from << ".." << to;
        }
    }
}

TEST(Bitops, LowMask)
{
    EXPECT_EQ(lowMask(0), 0);
    EXPECT_EQ(lowMask(1), 1);
    EXPECT_EQ(lowMask(4), 15);
    EXPECT_EQ(lowMask(31), kValueMask);
}

TEST(Bitops, WrappingOps)
{
    EXPECT_EQ(wadd(INT32_MAX, 1), INT32_MIN);
    EXPECT_EQ(wsub(INT32_MIN, 1), INT32_MAX);
    EXPECT_EQ(wmul(65536, 65536), 0);
    EXPECT_EQ(wadd(5, 7), 12);
}

TEST(Bitops, ShiftField)
{
    EXPECT_EQ(shiftField(0b11, 3), 0b11000);
    EXPECT_EQ(shiftField(0b11000, -3), 0b11);
    EXPECT_EQ(shiftField(5, 0), 5);
    // Left shifts wrap through the 32-bit representation.
    EXPECT_EQ(shiftField(1, 31), INT32_MIN);
}

} // namespace
} // namespace asim

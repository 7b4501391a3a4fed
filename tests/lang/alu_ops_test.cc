/** @file Unit tests for the fourteen ALU functions (thesis dologic). */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "lang/alu_ops.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {
namespace {

TEST(AluOps, BasicFunctions)
{
    EXPECT_EQ(dologic(kAluZero, 5, 7), 0);
    EXPECT_EQ(dologic(kAluRight, 5, 7), 7);
    EXPECT_EQ(dologic(kAluLeft, 5, 7), 5);
    EXPECT_EQ(dologic(kAluNot, 5, 7), kValueMask - 5);
    EXPECT_EQ(dologic(kAluAdd, 5, 7), 12);
    EXPECT_EQ(dologic(kAluSub, 5, 7), -2);
    EXPECT_EQ(dologic(kAluMul, 5, 7), 35);
    EXPECT_EQ(dologic(kAluAnd, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(dologic(kAluOr, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(dologic(kAluXor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(dologic(kAluUnused, 5, 7), 0);
    EXPECT_EQ(dologic(kAluEq, 5, 5), 1);
    EXPECT_EQ(dologic(kAluEq, 5, 7), 0);
    EXPECT_EQ(dologic(kAluLt, 5, 7), 1);
    EXPECT_EQ(dologic(kAluLt, 7, 5), 0);
    EXPECT_EQ(dologic(kAluLt, -1, 0), 1); // signed compare
}

TEST(AluOps, ShiftLeftThesisQuirk)
{
    // The 1986 dologic never writes `value` when the loop does not
    // run: shift by zero yields 0, not the input.
    EXPECT_EQ(dologic(kAluShl, 5, 0), 0);
    EXPECT_EQ(dologic(kAluShl, 0, 3), 0);
    EXPECT_EQ(dologic(kAluShl, 5, 1), 10);
    EXPECT_EQ(dologic(kAluShl, 5, 3), 40);
    EXPECT_EQ(dologic(kAluShl, 1, 12), 4096);
}

TEST(AluOps, ShiftLeftFixedSemantics)
{
    EXPECT_EQ(dologic(kAluShl, 5, 0, AluSemantics::Fixed), 5);
    EXPECT_EQ(dologic(kAluShl, 0, 3, AluSemantics::Fixed), 0);
    EXPECT_EQ(dologic(kAluShl, 5, 3, AluSemantics::Fixed), 40);
}

TEST(AluOps, ShiftMasksTo31Bits)
{
    // Shifting past bit 30 drops bits through the 31-bit mask.
    EXPECT_EQ(dologic(kAluShl, 1, 31), 0);
    EXPECT_EQ(dologic(kAluShl, 1, 30), 1 << 30);
    EXPECT_EQ(dologic(kAluShl, 3, 30), 1 << 30);
}

TEST(AluOps, NotIs31BitComplement)
{
    EXPECT_EQ(dologic(kAluNot, 0, 0), kValueMask);
    EXPECT_EQ(dologic(kAluNot, kValueMask, 0), 0);
}

TEST(AluOps, InvalidFunctionThrows)
{
    EXPECT_THROW(dologic(14, 1, 2), SimError);
    EXPECT_THROW(dologic(-1, 1, 2), SimError);
    EXPECT_THROW(dologic(100, 1, 2), SimError);
}

TEST(AluOps, WrappingArithmetic)
{
    EXPECT_EQ(dologic(kAluAdd, INT32_MAX, 1), INT32_MIN);
    EXPECT_EQ(dologic(kAluSub, INT32_MIN, 1), INT32_MAX);
    EXPECT_EQ(dologic(kAluMul, 1 << 20, 1 << 20), 0);
}

/** The switch-and-loop dologic as generated in 1986 (thesis Appendix
 *  E), kept here as the oracle for the branch-free one. */
int32_t
thesisDologic(int32_t funct, int32_t left, int32_t right,
              AluSemantics sem)
{
    switch (funct) {
      case kAluZero: return 0;
      case kAluRight: return right;
      case kAluLeft: return left;
      case kAluNot: return wsub(kValueMask, left);
      case kAluAdd: return wadd(left, right);
      case kAluSub: return wsub(left, right);
      case kAluShl: {
        if (sem == AluSemantics::Fixed) {
            int32_t v = land(left, kValueMask);
            for (int32_t r = right; r > 0 && v != 0; --r)
                v = land(wadd(v, v), kValueMask);
            return v;
        }
        int32_t value = 0;
        int32_t l = left;
        for (int32_t r = right; r > 0 && l != 0; --r) {
            l = land(wadd(l, l), kValueMask);
            value = l;
        }
        return value;
      }
      case kAluMul: return wmul(left, right);
      case kAluAnd: return land(left, right);
      case kAluOr: return wsub(wadd(left, right), land(left, right));
      case kAluXor:
        return wsub(wadd(left, right), wmul(land(left, right), 2));
      case kAluUnused: return 0;
      case kAluEq: return left == right ? 1 : 0;
      case kAluLt: return left < right ? 1 : 0;
    }
    ADD_FAILURE() << "oracle asked for function " << funct;
    return 0;
}

TEST(AluOps, BranchFreeMatchesThesisLoop)
{
    const int32_t edges[] = {0,   1,  -1,        2,         30,
                             31,  32, 33,        100,       INT32_MIN,
                             INT32_MAX, 0x40000000};
    std::mt19937 rng(19);
    std::uniform_int_distribution<int32_t> any(INT32_MIN, INT32_MAX);
    std::uniform_int_distribution<int32_t> count(-5, 64);
    uint64_t mismatches = 0;
    for (AluSemantics sem : {AluSemantics::Thesis, AluSemantics::Fixed}) {
        for (int32_t f = 0; f < kAluFunctionCount; ++f) {
            const auto check = [&](int32_t l, int32_t r) {
                const int32_t want = thesisDologic(f, l, r, sem);
                const int32_t got = dologic(f, l, r, sem);
                if (got != want && ++mismatches <= 10) {
                    ADD_FAILURE() << "dologic(" << f << ", " << l << ", "
                                  << r << ") = " << got << ", want "
                                  << want;
                }
            };
            for (int32_t l : edges) {
                for (int32_t r : edges)
                    check(l, r);
            }
            // Half the pairs with shift-sized right operands.
            for (int i = 0; i < 100000; ++i)
                check(any(rng), i % 2 ? count(rng) : any(rng));
        }
    }
    EXPECT_EQ(mismatches, 0u);
    for (int32_t f : {-1, 14}) {
        try {
            dologic(f, 1, 2);
            ADD_FAILURE() << "function " << f << " accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "ALU function " + std::to_string(f) +
                          " out of range 0..13");
        }
    }
}

/** Property sweep: OR/XOR identities hold for the add/and encodings
 *  the thesis uses (l + r - and, l + r - 2*and). */
class AluIdentity : public ::testing::TestWithParam<int32_t>
{};

TEST_P(AluIdentity, OrXorMatchBitwise)
{
    const int32_t a = GetParam();
    for (int32_t b :
         {0, 1, 2, 3, 0x55, 0xAA, 0xFF, 0x1234, 0x7FFF, 0x12345}) {
        EXPECT_EQ(dologic(kAluOr, a, b),
                  static_cast<int32_t>(static_cast<uint32_t>(a) |
                                       static_cast<uint32_t>(b)))
            << "a=" << a << " b=" << b;
        EXPECT_EQ(dologic(kAluXor, a, b),
                  static_cast<int32_t>(static_cast<uint32_t>(a) ^
                                       static_cast<uint32_t>(b)))
            << "a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Values, AluIdentity,
    ::testing::Values(0, 1, 2, 3, 0x55, 0xAA, 0x0F0F, 0x7FFFFFFF,
                      0x12345678, 0x40000000));

/** Property sweep: shift-left equals masked multiplication by 2^n for
 *  non-degenerate inputs, under both semantics. */
class AluShift : public ::testing::TestWithParam<int>
{};

TEST_P(AluShift, MatchesMaskedMultiply)
{
    const int n = GetParam();
    for (int32_t v : {1, 2, 3, 5, 100, 4097}) {
        int64_t expect64 = (static_cast<int64_t>(v) << n) & kValueMask;
        // The loop masks at every doubling, so once the value hits
        // zero it stays zero; for v>0 the final mask is identical.
        int32_t expect = static_cast<int32_t>(expect64);
        EXPECT_EQ(dologic(kAluShl, v, n), expect) << "v=" << v;
        EXPECT_EQ(dologic(kAluShl, v, n, AluSemantics::Fixed), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Shifts, AluShift, ::testing::Range(1, 20));

} // namespace
} // namespace asim

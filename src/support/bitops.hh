/**
 * @file
 * Bit-level value semantics of the ASIM II simulators.
 *
 * The thesis stores every signal in a 32-bit two's-complement Pascal
 * `integer`, caps usable data width at 31 bits (`mask = 2147483647`),
 * and implements the bitwise AND (`land`) with a set-intersection trick
 * over the raw representation. We reproduce those semantics exactly:
 * values live in int32_t, `land` is a plain bitwise AND, and arithmetic
 * wraps modulo 2^32 (a deterministic stand-in for the unchecked 1986
 * Pascal arithmetic).
 */

#ifndef ASIM_SUPPORT_BITOPS_HH
#define ASIM_SUPPORT_BITOPS_HH

#include <cstdint>

namespace asim {

/** Data values are 31 bits wide: the thesis' `mask` constant. */
constexpr int32_t kValueMask = 0x7fffffff;

/** Maximum number of data bits in an expression ("Too many bits"). */
constexpr int kMaxBits = 31;

/** The thesis' `land` function: bitwise AND over the representation. */
constexpr int32_t
land(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) &
                                static_cast<uint32_t>(b));
}

/** 2^n for n in [0,31]: the thesis' `highbits` table. */
constexpr int32_t
highbit(int n)
{
    return static_cast<int32_t>(uint32_t{1} << n);
}

/** Mask with bits from..to (inclusive, zero-based, both in [0,31])
 *  set; 0 when from > to. */
constexpr int32_t
maskBits(int from, int to)
{
    if (from > to)
        return 0;
    return static_cast<int32_t>((~uint32_t{0} >> (31 - to)) &
                                (~uint32_t{0} << from));
}

/** Mask with the low `width` bits set (width in [0,31]). */
constexpr int32_t
lowMask(int width)
{
    return width <= 0 ? 0 : maskBits(0, width - 1);
}

/** Wrapping 32-bit addition (Pascal integer overflow stand-in). */
constexpr int32_t
wadd(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) +
                                static_cast<uint32_t>(b));
}

/** Wrapping 32-bit subtraction. */
constexpr int32_t
wsub(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) -
                                static_cast<uint32_t>(b));
}

/** Wrapping 32-bit multiplication. */
constexpr int32_t
wmul(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) *
                                static_cast<uint32_t>(b));
}

/**
 * Shift a field into its concatenation position.
 *
 * @param v already-masked field value
 * @param shift net shift; positive shifts left, negative right
 */
constexpr int32_t
shiftField(int32_t v, int shift)
{
    if (shift >= 0)
        return static_cast<int32_t>(static_cast<uint32_t>(v) << shift);
    return static_cast<int32_t>(static_cast<uint32_t>(v) >> -shift);
}

} // namespace asim

#endif // ASIM_SUPPORT_BITOPS_HH

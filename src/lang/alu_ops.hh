/**
 * @file
 * The fourteen ASIM II ALU functions (thesis Appendix A, implemented as
 * the generated `dologic` in Appendix E).
 *
 *   0 zero           7 left * right
 *   1 right          8 AND(left, right)
 *   2 left           9 OR(left, right)
 *   3 NOT(left)     10 XOR(left, right)
 *   4 left + right  11 unused (zero)
 *   5 left - right  12 left = right  (1 if true, 0 if false)
 *   6 left * 2^right (shift left)
 *                   13 left < right
 *
 * Function 6 carries a faithful quirk: the thesis loop
 *
 *     value := 0;
 *     while (right > 0) and (left <> 0) do begin
 *         left := land(left + left, mask); value := left; ...
 *
 * never assigns `value` when the shift count is zero, so
 * `dologic(6, x, 0) = 0` rather than `x`. AluSemantics::Thesis keeps
 * that behavior (the default — it is what both ASIM and ASIM II
 * executed); AluSemantics::Fixed repairs it to a true shift.
 */

#ifndef ASIM_LANG_ALU_OPS_HH
#define ASIM_LANG_ALU_OPS_HH

#include <cstdint>

#include "support/bitops.hh"

namespace asim {

/** Which shift-left edge-case behavior to use. */
enum class AluSemantics
{
    Thesis, ///< dologic(6, x, 0) == 0, exactly as generated in 1986
    Fixed,  ///< dologic(6, x, 0) == land(x, mask)
};

/** Symbolic names for the ALU function codes. */
enum AluFunction : int32_t
{
    kAluZero = 0,
    kAluRight = 1,
    kAluLeft = 2,
    kAluNot = 3,
    kAluAdd = 4,
    kAluSub = 5,
    kAluShl = 6,
    kAluMul = 7,
    kAluAnd = 8,
    kAluOr = 9,
    kAluXor = 10,
    kAluUnused = 11,
    kAluEq = 12,
    kAluLt = 13,

    kAluFunctionCount = 14,
};

/** True if `funct` names a valid ALU function. */
constexpr bool
validAluFunction(int32_t funct)
{
    return funct >= 0 && funct < kAluFunctionCount;
}

/** Throws the SimError for an ALU function outside [0,13]: the
 *  generated Pascal would have died with a case-range error. */
[[noreturn]] void aluFunctionOutOfRange(int32_t funct);

/**
 * Function 6 in closed form. The thesis loop doubles `left` under the
 * 31-bit mask `right` times, stopping early once it reaches zero, so
 * for `right > 0` the result is `land(left << min(right, 31), mask)`.
 * A count of zero or less leaves the loop unentered: Thesis returns
 * the never-assigned 0, Fixed returns `land(left, mask)`, which is
 * the same formula at a clamped count of 0.
 */
constexpr int32_t
aluShiftLeft(int32_t left, int32_t right, AluSemantics sem)
{
    const int n = right <= 0 ? 0 : right < 31 ? right : 31;
    const int32_t shifted = land(
        static_cast<int32_t>(static_cast<uint32_t>(left) << n),
        kValueMask);
    // A mask, not a conditional, so the compiler emits no branch.
    const bool keep = right > 0 || sem == AluSemantics::Fixed;
    return land(shifted, -static_cast<int32_t>(keep));
}

/**
 * Evaluate ALU function `funct` on `left` and `right`. Every function
 * is computed and the result picked by index, so the only branch is
 * the range check, taken only by a run that faults.
 *
 * @throws SimError if `funct` is outside [0,13].
 */
inline int32_t
dologic(int32_t funct, int32_t left, int32_t right,
        AluSemantics sem = AluSemantics::Thesis)
{
    if (!validAluFunction(funct))
        aluFunctionOutOfRange(funct);
    const int32_t sum = wadd(left, right);
    const int32_t both = land(left, right);
    const int32_t results[kAluFunctionCount] = {
        0,
        right,
        left,
        wsub(kValueMask, left),
        sum,
        wsub(left, right),
        aluShiftLeft(left, right, sem),
        wmul(left, right),
        both,
        wsub(sum, both),
        wsub(sum, wmul(both, 2)),
        0,
        static_cast<int32_t>(left == right),
        static_cast<int32_t>(left < right),
    };
    return results[funct];
}

} // namespace asim

#endif // ASIM_LANG_ALU_OPS_HH

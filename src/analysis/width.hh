/**
 * @file
 * Bit-width analysis (thesis `numberofbits`).
 *
 * Computes the number of result bits of an expression, capped at 31.
 * Used by the code generators to decide whether a memory's operation
 * expression can possibly carry the trace-write (bit 2) or trace-read
 * (bit 3) flags, so trace code is only emitted when reachable.
 */

#ifndef ASIM_ANALYSIS_WIDTH_HH
#define ASIM_ANALYSIS_WIDTH_HH

#include <span>

#include "lang/expr.hh"

namespace asim {

/** Width in bits of the expression made of `terms` (1..31). Terms
 *  without an explicit width (bare constants, whole component
 *  references) count as 31. */
int widthOf(std::span<const Term> terms);

/** Width in bits of a single term (-1-width terms count as 31). */
int widthOf(const Term &term);

} // namespace asim

#endif // ASIM_ANALYSIS_WIDTH_HH

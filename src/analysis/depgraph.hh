/**
 * @file
 * Combinational dependency analysis and ordering (thesis `orderit`).
 *
 * ALUs and selectors form the combinational network: a component that
 * reads another ALU/selector's output must be evaluated after it.
 * Memories impose no ordering — their inputs are latched and their
 * outputs go through one-cycle-delay temporaries. The thesis used an
 * O(n^3) exchange sort; we use Kahn's algorithm with declaration-order
 * tie-breaking, which produces a valid order under exactly the same
 * dependency relation and reports circular dependencies with the full
 * residual component set.
 */

#ifndef ASIM_ANALYSIS_DEPGRAPH_HH
#define ASIM_ANALYSIS_DEPGRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hh"

namespace asim {

struct ResolvedSpec;

/** True if component `a` of `spec` depends on the output of component
 *  `b` (thesis `dependent`): some input expression of `a` references
 *  `b`. Memories never depend on anything for ordering. */
bool dependsOn(const Spec &spec, const Component &a, const Component &b);

/**
 * Topologically order the combinational components.
 *
 * @param spec the specification; its components in declaration order
 * @return indices into `spec.comps` of the ALUs/selectors in a valid
 *         evaluation order (memories are not included)
 * @throws SpecError naming the components on a combinational cycle
 *         ("Error. Circular dependency with ...")
 */
std::vector<int> orderCombinational(const Spec &spec);

/**
 * Dependency level of every `rs.comb` entry: 0 for a component that
 * reads no comb slot, else 1 + the highest level of any component
 * whose output it reads (memory output latches add nothing).
 * Components of one level never read each other. Shared by the
 * bytecode compiler's comb schedule and the partitioned
 * interpreter's levelized phases.
 */
std::vector<int32_t> combLevels(const ResolvedSpec &rs);

} // namespace asim

#endif // ASIM_ANALYSIS_DEPGRAPH_HH

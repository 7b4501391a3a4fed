/**
 * @file
 * Serializer: render a Spec back to ASIM II source text.
 *
 * Used by the synthetic spec generator, the fault injector, and the
 * parse(write(spec)) round-trip property tests.
 */

#ifndef ASIM_LANG_WRITER_HH
#define ASIM_LANG_WRITER_HH

#include <string>

#include "lang/ast.hh"

namespace asim {

/** Render `spec` as a complete, parseable specification text. */
std::string writeSpec(const Spec &spec);

/** Render a single component definition line of `spec`. */
std::string writeComponent(const Spec &spec, const Component &comp);

} // namespace asim

#endif // ASIM_LANG_WRITER_HH

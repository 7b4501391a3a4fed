/**
 * @file
 * Serializer: render a Spec back to ASIM II source text.
 *
 * Used by the synthetic spec generator, the fault injector, and the
 * parse(write(spec)) round-trip property tests.
 */

#ifndef ASIM_LANG_WRITER_HH
#define ASIM_LANG_WRITER_HH

#include <cstdint>
#include <string>

#include "lang/ast.hh"

namespace asim {

/** Render `spec` as a complete, parseable specification text. With
 *  `hash`, also store the text's fnv1a64 (support/serialize.hh) there,
 *  taken line by line as the text is written. */
std::string writeSpec(const Spec &spec, uint64_t *hash = nullptr);

/** Render a single component definition line of `spec`. */
std::string writeComponent(const Spec &spec, const Component &comp);

} // namespace asim

#endif // ASIM_LANG_WRITER_HH

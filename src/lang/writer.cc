#include "lang/writer.hh"

#include <algorithm>
#include <charconv>
#include <vector>

#include "support/serialize.hh"
#include "support/text.hh"

namespace asim {

namespace {

/** The most bytes one decimal value takes, with the blank and sign
 *  before it. */
constexpr size_t kIntBytes = 22;

/**
 * Writes component definition lines. Each line goes through a cursor
 * into one reused buffer, sized from the line's term count alone (no
 * term is read twice), then onto the text in one append. With a hash,
 * each expression's bytes are hashed as soon as they are written: the
 * hash's multiply chain over a few bytes then overlaps the writing of
 * the next, where a hash over the whole text afterwards would be one
 * long chain.
 */
class ComponentWriter
{
  public:
    ComponentWriter(const Spec &spec, Fnv1a64 *hash)
        : spec_(spec), hash_(hash)
    {
        // Each term and its comma (exprTextBound): at most a '#' and
        // the 127 digits an int8 width allows, or a name and two
        // fields.
        size_t longest = 0;
        for (NameId id = 0; id < spec.names.size(); ++id)
            longest = std::max(longest, spec.names[id].size());
        termBytes_ = std::max<size_t>(longest + 11, 129);
    }

    /** Append `comp`'s line, without its newline, to `out`. */
    void
    append(std::string &out, const Component &comp)
    {
        const std::string_view name = spec_.name(comp.name);
        size_t bound = 2 + name.size() + 2 * kIntBytes +
                       size_t{comp.numInit} * kIntBytes;
        for (Expr e : spec_.exprs(comp))
            bound += 1 + e.count * termBytes_;
        if (line_.size() < bound)
            line_.resize(std::max(bound, 2 * line_.size()));
        char *const begin = line_.data();
        char *p = begin;
        char *hashed = begin;
        const auto hashNew = [&] {
            if (hash_) {
                hash_->add(std::string_view(hashed, p));
                hashed = p;
            }
        };
        const auto value = [&](const char *before, int64_t v) {
            while (*before)
                *p++ = *before++;
            p = std::to_chars(p, p + kIntBytes, v).ptr;
            hashNew();
        };

        *p++ = compKindLetter(comp.kind);
        *p++ = ' ';
        p = std::copy(name.begin(), name.end(), p);
        for (Expr e : spec_.exprs(comp)) {
            *p++ = ' ';
            p = writeExpr(p, spec_, e);
            hashNew();
        }
        if (comp.kind == CompKind::Memory) {
            // A listed memory writes its size negated, then the values.
            value(comp.numInit ? " -" : " ", comp.memSize);
            for (int32_t v : spec_.init(comp))
                value(" ", v);
        }
        hashNew();
        out.append(begin, p);
    }

  private:
    const Spec &spec_;
    Fnv1a64 *hash_;
    size_t termBytes_ = 0;
    std::vector<char> line_;
};

} // namespace

std::string
writeComponent(const Spec &spec, const Component &comp)
{
    std::string out;
    ComponentWriter(spec, nullptr).append(out, comp);
    return out;
}

std::string
writeSpec(const Spec &spec, uint64_t *hash)
{
    // A generated spec writes about 10 bytes per term; room for more
    // keeps a large text from being copied as it grows, and room it
    // never fills is never touched.
    std::string out;
    out.reserve(spec.comment.size() + 16 * spec.decls.size() +
                32 * spec.comps.size() + 12 * spec.termPool.size() +
                12 * spec.initPool.size());
    Fnv1a64 fnv;
    const auto put = [&](std::string_view piece) {
        out += piece;
        if (hash)
            fnv.add(piece);
    };
    put("#");
    put(spec.comment);
    put("\n");
    if (spec.cyclesSpecified) {
        std::string cycles = "= ";
        appendInt(cycles, spec.cycles);
        put(cycles);
        put("\n");
    }
    for (const auto &d : spec.decls) {
        put(spec.name(d.name));
        put(d.traced ? "*\n" : "\n");
    }
    put(".\n");
    ComponentWriter writer(spec, hash ? &fnv : nullptr);
    for (const auto &c : spec.comps) {
        writer.append(out, c);
        put("\n");
    }
    put(".\n");
    if (hash)
        *hash = fnv.value();
    return out;
}

} // namespace asim

#include "machines/synthetic.hh"

#include <algorithm>
#include <random>
#include <string>

#include "lang/writer.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

namespace {

class Generator
{
  public:
    explicit Generator(const SyntheticOptions &opts)
        : opts_(opts), rng_(opts.seed)
    {}

    Spec
    run()
    {
        spec_.comment = " synthetic spec seed " +
                        std::to_string(opts_.seed);
        spec_.cycles = 64;
        spec_.cyclesSpecified = true;

        // Memories first so combinational components can reference
        // their latches from the start.
        for (int i = 0; i < opts_.memories; ++i)
            addMemoryName();
        int combTotal = opts_.alus + opts_.selectors;
        spec_.comps.reserve(static_cast<size_t>(combTotal) +
                            static_cast<size_t>(opts_.memories));
        spec_.decls.reserve(spec_.comps.capacity());
        std::vector<CompKind> kinds;
        for (int i = 0; i < opts_.alus; ++i)
            kinds.push_back(CompKind::Alu);
        for (int i = 0; i < opts_.selectors; ++i)
            kinds.push_back(CompKind::Selector);
        std::shuffle(kinds.begin(), kinds.end(), rng_);

        if (opts_.layers > 0) {
            // Layered mode: fix each component's layer/column before
            // defining it so reference choices can honor the depth
            // and locality knobs.
            layers_ = std::min(opts_.layers, std::max(combTotal, 1));
            layerWidth_ =
                (combTotal + layers_ - 1) / std::max(layers_, 1);
            prevLayer_.clear();
            curLayer_.clear();
        }

        for (int i = 0; i < combTotal; ++i) {
            if (opts_.layers > 0) {
                layer_ = i / layerWidth_;
                col_ = i % layerWidth_;
                if (col_ == 0) {
                    if (i > 0) {
                        prevLayer_ = std::move(curLayer_);
                        curLayer_.clear();
                    }
                    layerStart_ = static_cast<int>(combNames_.size());
                }
            }
            if (kinds[i] == CompKind::Alu)
                addAlu(i);
            else
                addSelector(i);
            if (opts_.layers > 0)
                curLayer_.push_back(spec_.comps.back().name);
        }
        if (opts_.layers > 0) {
            // Memories sit conceptually below the last layer: their
            // (latched, order-free) inputs sample the final outputs.
            prevLayer_ = curLayer_;
            layer_ = layers_;
            layerStart_ = static_cast<int>(combNames_.size());
        }
        for (int i = 0; i < opts_.memories; ++i)
            defineMemory(i);

        // Declarations, with a random subset starred.
        for (const auto &c : spec_.comps) {
            DeclName d;
            d.name = c.name;
            d.traced = pct(opts_.tracedPercent);
            spec_.decls.push_back(d);
        }
        return std::move(spec_);
    }

  private:
    bool pct(int p) { return static_cast<int>(rng_() % 100) < p; }

    int
    uniform(int lo, int hi)
    {
        return lo + static_cast<int>(rng_() % (hi - lo + 1));
    }

    Term
    constTerm(int width)
    {
        Term t;
        t.kind = Term::Kind::Const;
        t.value = uniform(0, (1 << std::min(width, 16)) - 1);
        t.width = static_cast<int8_t>(width);
        return t;
    }

    /** Layered mode: pick the producer by the depth/locality knobs —
     *  mostly the same column one layer up, otherwise any strictly
     *  earlier layer or a memory latch. Never the current layer, so
     *  the network's dependency depth is exactly the layer count. */
    Term
    layeredRef(int width)
    {
        Term t;
        t.kind = Term::Kind::Ref;
        if (layer_ == 0 || layerStart_ == 0) {
            if (memNames_.empty() || !pct(70))
                return constTerm(width);
            t.ref = memNames_[uniform(
                0, static_cast<int>(memNames_.size()) - 1)];
        } else if (!prevLayer_.empty() &&
                   pct(opts_.localityPercent)) {
            t.ref = prevLayer_[col_ %
                               static_cast<int>(prevLayer_.size())];
        } else if (!memNames_.empty() && pct(10)) {
            t.ref = memNames_[uniform(
                0, static_cast<int>(memNames_.size()) - 1)];
        } else {
            t.ref = combNames_[uniform(0, layerStart_ - 1)];
        }
        t.from = uniform(0, 8);
        t.to = t.from + width - 1;
        if (width == 1 && pct(50))
            t.to = -1; // single-bit form `name.f`
        return t;
    }

    /** A reference term with an explicit subfield of `width` bits. */
    Term
    refTerm(int width)
    {
        if (opts_.layers > 0)
            return layeredRef(width);
        Term t;
        t.kind = Term::Kind::Ref;
        // Choose among already-defined combinational components and
        // any memory (memory latches never create cycles).
        if (!combNames_.empty() && (memNames_.empty() || pct(60))) {
            t.ref = combNames_[uniform(
                0, static_cast<int>(combNames_.size()) - 1)];
        } else if (!memNames_.empty()) {
            t.ref = memNames_[uniform(
                0, static_cast<int>(memNames_.size()) - 1)];
        } else {
            return constTerm(width);
        }
        t.from = uniform(0, 8);
        t.to = t.from + width - 1;
        if (width == 1 && pct(50))
            t.to = -1; // single-bit form `name.f`
        return t;
    }

    /** Random expression totalling exactly `width` bits. */
    Expr
    expr(int width)
    {
        terms_.clear();
        int remaining = width;
        while (remaining > 0) {
            int w = uniform(1, std::min(remaining, 6));
            if (remaining - w == 1)
                w = remaining; // avoid awkward 1-bit tails sometimes
            switch (uniform(0, 2)) {
              case 0:
                terms_.push_back(constTerm(w));
                break;
              case 1: {
                Term t;
                t.kind = Term::Kind::BitString;
                t.width = static_cast<int8_t>(w);
                t.value = uniform(0, (1 << w) - 1);
                terms_.push_back(t);
                break;
              }
              default:
                terms_.push_back(refTerm(w));
                break;
            }
            remaining -= w;
        }
        return spec_.addExpr(terms_);
    }

    /** A one-term expression. */
    Expr oneTerm(const Term &t) { return spec_.addExpr({&t, 1}); }

    void
    addMemoryName()
    {
        memNames_.push_back(spec_.names.intern(
            "mem" + std::to_string(memNames_.size())));
    }

    void
    addAlu(int i)
    {
        const NameId name = spec_.names.intern("alu" + std::to_string(i));
        Expr funct;
        if (pct(opts_.dynamicFunctPercent) &&
            (!combNames_.empty() || !memNames_.empty())) {
            // Dynamic function: a 3-bit subfield, always in 0..7.
            funct = oneTerm(refTerm(3));
        } else {
            Term t;
            t.kind = Term::Kind::Const;
            t.value = uniform(0, 13);
            t.width = -1;
            funct = oneTerm(t);
        }
        const Expr left = expr(uniform(1, 12));
        const Expr right = expr(uniform(1, 12));
        const Expr exprs[] = {funct, left, right};
        spec_.comps.push_back(
            spec_.makeComponent(CompKind::Alu, name, exprs));
        combNames_.push_back(name);
    }

    void
    addSelector(int i)
    {
        const NameId name = spec_.names.intern("sel" + std::to_string(i));
        // k-bit index, 2^k cases: always in range.
        int k = uniform(1, 3);
        Term select = refTerm(k);
        if (select.kind != Term::Kind::Ref) {
            // refTerm degraded to a constant (no components yet);
            // constant index is masked to k bits and stays in range.
            select.width = static_cast<int8_t>(k);
        }
        exprs_.assign(1, oneTerm(select));
        for (int j = 0; j < (1 << k); ++j)
            exprs_.push_back(expr(uniform(1, 10)));
        spec_.comps.push_back(
            spec_.makeComponent(CompKind::Selector, name, exprs_));
        combNames_.push_back(name);
    }

    void
    defineMemory(int i)
    {
        const NameId name = memNames_[i];
        int bits = uniform(2, 6);
        const int64_t memSize = int64_t{1} << bits;
        // Address: subfield of `bits` bits — always in range.
        const Expr addr = expr(bits);
        const Expr data = expr(uniform(1, 12));
        // Operation: constants (read/write with optional trace bits)
        // or a dynamic 2-bit field; I/O ops only when allowed.
        Expr opn;
        int roll = uniform(0, 9);
        if (roll < 3) {
            opn = expr(2); // dynamic 0..3 (includes I/O)
            if (!opts_.withIo) {
                // Constrain to 1 bit: read/write only.
                opn = expr(1);
            }
        } else {
            static const int32_t kOps[] = {0, 1, 1, 0, 5, 9, 1, 0, 2, 3};
            int32_t op = kOps[roll];
            if (!opts_.withIo && (op == 2 || op == 3))
                op = land(op, 1);
            Term t;
            t.kind = Term::Kind::Const;
            t.value = op;
            t.width = -1;
            opn = oneTerm(t);
        }
        std::vector<int32_t> init;
        if (pct(40)) {
            for (int64_t j = 0; j < memSize; ++j)
                init.push_back(uniform(0, 4095));
        }
        const Expr exprs[] = {addr, data, opn};
        spec_.comps.push_back(spec_.makeComponent(
            CompKind::Memory, name, exprs, memSize, init));
    }

    SyntheticOptions opts_;
    std::mt19937 rng_;
    Spec spec_;
    std::vector<NameId> combNames_;
    std::vector<NameId> memNames_;

    /** The expression / component being built, reused. */
    std::vector<Term> terms_;
    std::vector<Expr> exprs_;

    /// @{ Layered-mode bookkeeping (opts_.layers > 0).
    int layers_ = 0;       ///< effective layer count
    int layerWidth_ = 1;   ///< components per layer
    int layer_ = 0;        ///< layer being defined
    int col_ = 0;          ///< column within the layer
    int layerStart_ = 0;   ///< combNames_ size when this layer began
    std::vector<NameId> prevLayer_;
    std::vector<NameId> curLayer_;
    /// @}
};

} // namespace

Spec
generateSynthetic(const SyntheticOptions &opts)
{
    return Generator(opts).run();
}

std::string
generateSyntheticText(const SyntheticOptions &opts)
{
    return writeSpec(generateSynthetic(opts));
}

SyntheticOptions
syntheticPreset(const std::string &name)
{
    int64_t total = -1;
    if (name == "1k") {
        total = 1000;
    } else if (name == "10k") {
        total = 10000;
    } else if (name == "100k") {
        total = 100000;
    } else if (name == "1m" || name == "1M") {
        total = 1000000;
    } else {
        try {
            size_t pos = 0;
            total = std::stoll(name, &pos);
            if (pos != name.size())
                total = -1;
        } catch (...) {
            total = -1;
        }
    }
    if (total < 1 || total > 4000000) {
        throw SpecError("Error. Unknown synthetic preset <" + name +
                        "> (use 1k, 10k, 100k, 1m, or a component "
                        "count up to 4000000).");
    }

    SyntheticOptions o;
    // Mostly ALUs: selectors carry several case expressions each and
    // would otherwise dominate both resolve time and spec size.
    o.selectors = static_cast<int>(total / 8);
    o.alus = static_cast<int>(total) - o.selectors;
    o.memories = total >= 1000 ? 8 : 2;
    o.seed = 0xA51Bu ^ static_cast<uint32_t>(total);
    // I/O-free and untraced: every engine and thread count replays
    // the same run with no script, and benchmarks measure the
    // datapath rather than the trace formatter.
    o.withIo = false;
    o.dynamicFunctPercent = 20;
    o.tracedPercent = 0;
    o.layers = 16;
    o.localityPercent = 90;
    return o;
}

} // namespace asim

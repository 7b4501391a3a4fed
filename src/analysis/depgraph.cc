#include "analysis/depgraph.hh"

#include <algorithm>
#include <bit>

#include "analysis/resolve.hh"
#include "support/logging.hh"

namespace asim {

bool
dependsOn(const Spec &spec, const Component &a, const Component &b)
{
    // Memory inputs are latched; they impose no ordering.
    if (a.kind == CompKind::Memory)
        return false;
    for (Expr e : spec.exprs(a)) {
        for (const Term &t : spec.terms(e)) {
            if (t.kind == Term::Kind::Ref && t.ref == b.name)
                return true;
        }
    }
    return false;
}

namespace {

/**
 * The ready set of Kahn's algorithm: a bitset over declaration
 * indexes with one summary bit per nonzero word, so taking the
 * smallest index is two count-trailing-zeros after a scan that only
 * moves forward until an index below it is added again.
 */
class ReadySet
{
  public:
    explicit ReadySet(int n)
        : words_((static_cast<size_t>(n) + 63) / 64, 0),
          summary_((words_.size() + 63) / 64, 0)
    {}

    bool empty() const { return size_ == 0; }

    void
    insert(int i)
    {
        const auto w = static_cast<size_t>(i) / 64;
        words_[w] |= uint64_t{1} << (i % 64);
        summary_[w / 64] |= uint64_t{1} << (w % 64);
        low_ = std::min(low_, w / 64);
        ++size_;
    }

    /** Remove and return the smallest index; the set is not empty. */
    int
    takeMin()
    {
        while (summary_[low_] == 0)
            ++low_;
        const size_t w = low_ * 64 + std::countr_zero(summary_[low_]);
        const int bit = std::countr_zero(words_[w]);
        words_[w] &= words_[w] - 1;
        if (words_[w] == 0)
            summary_[low_] &= summary_[low_] - 1;
        --size_;
        return static_cast<int>(w * 64) + bit;
    }

  private:
    std::vector<uint64_t> words_;
    std::vector<uint64_t> summary_;
    size_t low_ = 0;   ///< no summary word below this one is nonzero
    size_t size_ = 0;
};

} // namespace

std::vector<int>
orderCombinational(const Spec &spec)
{
    const std::vector<Component> &comps = spec.comps;
    const int n = static_cast<int>(comps.size());
    auto isComb = [&](int i) { return comps[i].kind != CompKind::Memory; };

    // Index the combinational components by NameId.
    std::vector<int> byName(spec.names.size(), -1);
    int numComb = 0;
    for (int i = 0; i < n; ++i) {
        if (isComb(i)) {
            ++numComb;
            if (byName[comps[i].name] < 0)
                byName[comps[i].name] = i;
        }
    }

    // The one pass over the terms: every component's producers in
    // reading order (its in-degree is their count) and every
    // producer's count of readers. A self-reference is a one-node
    // cycle: the self edge keeps the in-degree positive and Kahn
    // reports it.
    std::vector<int> indegree(n, 0);
    std::vector<uint32_t> userStart(n + 1, 0);
    std::vector<int> deps;
    deps.reserve(spec.termPool.size());
    for (int i = 0; i < n; ++i) {
        if (!isComb(i))
            continue;
        for (Expr e : spec.exprs(comps[i])) {
            for (const Term &t : spec.terms(e)) {
                if (t.kind != Term::Kind::Ref || byName[t.ref] < 0)
                    continue;
                deps.push_back(byName[t.ref]);
                ++userStart[byName[t.ref] + 1];
                ++indegree[i];
            }
        }
    }

    // Flat (CSR) adjacency keyed by declaration index, dep ->
    // dependents, filled from the producer lists.
    for (int i = 0; i < n; ++i)
        userStart[i + 1] += userStart[i];
    std::vector<int> users(deps.size());
    {
        std::vector<uint32_t> fill(userStart.begin(), userStart.end() - 1);
        size_t k = 0;
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < indegree[i]; ++d)
                users[fill[deps[k++]]++] = i;
        }
    }

    // Kahn's algorithm taking the smallest ready declaration index
    // first, so that independent components keep their spec order.
    ReadySet ready(n);
    for (int i = 0; i < n; ++i) {
        if (isComb(i) && indegree[i] == 0)
            ready.insert(i);
    }
    std::vector<int> order;
    order.reserve(numComb);
    while (!ready.empty()) {
        const int i = ready.takeMin();
        order.push_back(i);
        for (uint32_t k = userStart[i]; k < userStart[i + 1]; ++k) {
            if (--indegree[users[k]] == 0)
                ready.insert(users[k]);
        }
    }

    if (static_cast<int>(order.size()) != numComb) {
        std::string names;
        for (int i = 0; i < n; ++i) {
            if (isComb(i) && indegree[i] > 0) {
                if (!names.empty())
                    names += ", ";
                names += spec.name(comps[i].name);
            }
        }
        throw SpecError("Error. Circular dependency with " + names + ".");
    }
    return order;
}

std::vector<int32_t>
combLevels(const ResolvedSpec &rs)
{
    // rs.comb is in dependency order: a producer's level is final
    // before any reader asks for it. Output latches keep level -1, so
    // reading one adds nothing.
    std::vector<int32_t> slotLevel(rs.numVarSlots + rs.mems.size(), -1);
    std::vector<int32_t> level(rs.comb.size(), 0);
    for (size_t i = 0; i < rs.comb.size(); ++i) {
        const CombComp &c = rs.comb[i];
        int32_t l = 0;
        for (const ResolvedExpr &e : rs.exprs(c)) {
            for (const ResolvedTerm &t : rs.terms(e))
                l = std::max(l, slotLevel[t.slot] + 1);
        }
        level[i] = slotLevel[c.slot] = l;
    }
    return level;
}

} // namespace asim

#include "analysis/depgraph.hh"

#include <algorithm>
#include <queue>
#include <string_view>
#include <unordered_map>

#include "analysis/resolve.hh"
#include "support/logging.hh"

namespace asim {

std::vector<const Expr *>
inputExprs(const Component &c)
{
    std::vector<const Expr *> out;
    switch (c.kind) {
      case CompKind::Alu:
        out = {&c.funct, &c.left, &c.right};
        break;
      case CompKind::Selector:
        out.push_back(&c.select);
        for (const auto &e : c.cases)
            out.push_back(&e);
        break;
      case CompKind::Memory:
        // Memory inputs are latched; they impose no ordering.
        break;
    }
    return out;
}

bool
dependsOn(const Component &a, const Component &b)
{
    for (const Expr *e : inputExprs(a)) {
        for (const auto &t : e->terms) {
            if (t.kind == Term::Kind::Ref && t.ref == b.name)
                return true;
        }
    }
    return false;
}

namespace {

/** Heterogeneous string hashing so the name map is built from the
 *  components' own strings and probed with string_views — no
 *  per-lookup allocation, no O(log n) string compares. */
struct NameHash
{
    using is_transparent = void;
    size_t
    operator()(std::string_view s) const
    {
        return std::hash<std::string_view>{}(s);
    }
};

} // namespace

std::vector<int>
orderCombinational(const std::vector<Component> &comps)
{
    const int n = static_cast<int>(comps.size());

    // One pass: index the combinational components by name. The
    // former pairwise scan re-walked every component's term list per
    // candidate dependency (O(n^2 * names)); a name -> index map makes
    // edge construction O(total input terms).
    std::vector<int> comb;
    std::unordered_map<std::string_view, int, NameHash,
                       std::equal_to<>>
        byName;
    byName.reserve(comps.size());
    for (int i = 0; i < n; ++i) {
        if (comps[i].kind != CompKind::Memory) {
            byName.emplace(comps[i].name, i);
            comb.push_back(i);
        }
    }

    // Flat adjacency keyed by declaration index: dep -> dependents.
    std::vector<std::vector<int>> users(n);
    std::vector<int> indegree(n, 0);
    for (int i : comb) {
        for (const Expr *e : inputExprs(comps[i])) {
            for (const auto &t : e->terms) {
                if (t.kind != Term::Kind::Ref)
                    continue;
                auto it = byName.find(std::string_view(t.ref));
                if (it == byName.end())
                    continue;
                // A self-reference is a one-node cycle: the self edge
                // keeps the in-degree positive and Kahn reports it.
                users[it->second].push_back(i);
                ++indegree[i];
            }
        }
    }

    // Kahn's algorithm; the ready queue is ordered by declaration
    // index so that independent components keep their spec order.
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (int i : comb) {
        if (indegree[i] == 0)
            ready.push(i);
    }

    std::vector<int> order;
    order.reserve(comb.size());
    while (!ready.empty()) {
        int i = ready.top();
        ready.pop();
        order.push_back(i);
        for (int u : users[i]) {
            if (--indegree[u] == 0)
                ready.push(u);
        }
    }

    if (order.size() != comb.size()) {
        std::string names;
        for (int i : comb) {
            if (indegree[i] > 0) {
                if (!names.empty())
                    names += ", ";
                names += comps[i].name;
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
    // before any reader asks for it.
    std::vector<int32_t> slotLevel(rs.numVarSlots, -1);
    std::vector<int32_t> level(rs.comb.size(), 0);
    for (size_t i = 0; i < rs.comb.size(); ++i) {
        const CombComp &c = rs.comb[i];
        auto reads = [&](const ResolvedExpr &e) {
            for (const auto &t : e.terms) {
                if (t.bank == ResolvedTerm::Bank::Var)
                    level[i] = std::max(level[i], slotLevel[t.slot] + 1);
            }
        };
        if (c.kind == CompKind::Alu) {
            reads(c.funct);
            reads(c.left);
            reads(c.right);
        } else {
            reads(c.select);
            for (const auto &e : c.cases)
                reads(e);
        }
        slotLevel[c.slot] = level[i];
    }
    return level;
}

} // namespace asim

#include "analysis/depgraph.hh"

#include <algorithm>
#include <queue>

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

std::vector<int>
orderCombinational(const Spec &spec)
{
    const std::vector<Component> &comps = spec.comps;
    const int n = static_cast<int>(comps.size());

    // One pass: index the combinational components by NameId, so
    // edge construction is O(total input terms).
    std::vector<int> comb;
    std::vector<int> byName(spec.names.size(), -1);
    for (int i = 0; i < n; ++i) {
        if (comps[i].kind != CompKind::Memory) {
            if (byName[comps[i].name] < 0)
                byName[comps[i].name] = i;
            comb.push_back(i);
        }
    }

    // Flat (CSR) adjacency keyed by declaration index: dep ->
    // dependents. First count each producer's readers, then fill.
    // A self-reference is a one-node cycle: the self edge keeps the
    // in-degree positive and Kahn reports it.
    std::vector<int> indegree(n, 0);
    std::vector<uint32_t> userStart(n + 1, 0);
    auto forEachEdge = [&](auto edge) {
        for (int i : comb) {
            for (Expr e : spec.exprs(comps[i])) {
                for (const Term &t : spec.terms(e)) {
                    if (t.kind == Term::Kind::Ref && byName[t.ref] >= 0)
                        edge(byName[t.ref], i);
                }
            }
        }
    };
    forEachEdge([&](int dep, int user) {
        ++userStart[dep + 1];
        ++indegree[user];
    });
    for (int i = 0; i < n; ++i)
        userStart[i + 1] += userStart[i];
    std::vector<int> users(userStart[n]);
    {
        std::vector<uint32_t> fill(userStart.begin(), userStart.end() - 1);
        forEachEdge([&](int dep, int user) { users[fill[dep]++] = user; });
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
        for (uint32_t k = userStart[i]; k < userStart[i + 1]; ++k) {
            if (--indegree[users[k]] == 0)
                ready.push(users[k]);
        }
    }

    if (order.size() != comb.size()) {
        std::string names;
        for (int i : comb) {
            if (indegree[i] > 0) {
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
        for (const ResolvedExpr &e : rs.exprs(c)) {
            for (const ResolvedTerm &t : rs.terms(e))
                level[i] = std::max(level[i], slotLevel[t.slot] + 1);
        }
        slotLevel[c.slot] = level[i];
    }
    return level;
}

} // namespace asim

#include "sim/partition.hh"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>

#include "analysis/depgraph.hh"
#include "support/bitops.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace asim {

namespace {

/** Per-lane phase-duration histograms, one per phase kind, plus the
 *  barrier-wait histogram the ROADMAP's "overlap the serial tail"
 *  item needs. Exponential ns ladders: 250ns .. ~2s. */
metrics::Histogram &
phaseHist(const char *phaseName)
{
    auto bounds = [] {
        return metrics::Histogram::exponentialBounds(250, 2.0, 24);
    };
    if (phaseName[0] == 'c') {
        static metrics::Histogram &h =
            metrics::histogram("partition.lane.comb_ns", bounds());
        return h;
    }
    if (phaseName[0] == 'l') {
        static metrics::Histogram &h =
            metrics::histogram("partition.lane.latch_ns", bounds());
        return h;
    }
    static metrics::Histogram &h =
        metrics::histogram("partition.lane.update_ns", bounds());
    return h;
}

metrics::Histogram &
barrierHist()
{
    static metrics::Histogram &h = metrics::histogram(
        "partition.barrier_wait_ns",
        metrics::Histogram::exponentialBounds(100, 2.0, 24));
    return h;
}

/** Sample one cycle in 64 for per-lane trace spans: dense enough to
 *  see lane imbalance in Perfetto, sparse enough that the trace-file
 *  mutex never becomes a per-cycle barrier of its own. */
constexpr uint64_t kSpanSampleMask = 63;

/** Chrome tid base for lane tracks (coordinator threads keep their
 *  natural small tids). */
constexpr int64_t kLaneTidBase = 1000;

/** Path-halving union-find over declaration/index space. unite()
 *  always hangs the larger root under the smaller so a cluster's
 *  canonical element is its lowest index. */
struct UnionFind
{
    std::vector<int32_t> parent;

    explicit UnionFind(size_t n) : parent(n)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    int32_t
    find(int32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void
    unite(int32_t a, int32_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }
};

size_t
exprCost(const ResolvedExpr &e)
{
    return e.count;
}

/** Per-component evaluation cost estimate: one dispatch plus one unit
 *  per expression term the interpreter will touch. Selector cases all
 *  count — the balance target is the worst case, and which case runs
 *  is data-dependent. */
size_t
combCost(const ResolvedSpec &rs, const CombComp &c)
{
    size_t w = 1;
    for (const ResolvedExpr &e : rs.exprs(c))
        w += exprCost(e);
    return w;
}

/** Least-loaded lane, ties to the lowest lane id. */
size_t
lightestLane(const std::vector<size_t> &load)
{
    size_t best = 0;
    for (size_t l = 1; l < load.size(); ++l) {
        if (load[l] < load[best])
            best = l;
    }
    return best;
}

/** True when the memory's latched operation can ever be an I/O op.
 *  A constant operation decides statically; a computed one can only
 *  reach kInput/kOutput (op bit 1) when it is at least two bits
 *  wide. */
bool
mayDoIo(const MemDesc &m)
{
    if (m.opnConst)
        return land(m.opnValue, 3) >= mem_op::kInput;
    return m.opnWidth >= 2;
}

bool
mayTrace(const MemDesc &m)
{
    return m.traceWrites != MemDesc::TraceMode::Never ||
           m.traceReads != MemDesc::TraceMode::Never;
}

} // namespace

std::string
PartitionPlan::summary() const
{
    std::ostringstream os;
    os << "partition plan: " << lanes << " lanes, "
       << (aluCount + selCount) << " comb (" << aluCount << " alu, "
       << selCount << " sel), "
       << (levelized ? "levelized" : "component-packed") << ", "
       << levels << " phase" << (levels == 1 ? "" : "s") << ", "
       << combComponents << " components, " << crossEdges << "/"
       << totalEdges << " cross edges, lane weight "
       << minLaneWeight << ".." << maxLaneWeight << ", "
       << serialUpdates.size() << " serial mem"
       << (serialUpdates.size() == 1 ? "" : "s");
    return os.str();
}

PartitionPlan
buildPartitionPlan(const ResolvedSpec &rs, unsigned lanes,
                   bool tracingEnabled)
{
    PartitionPlan plan;
    plan.lanes = std::max(1u, lanes);
    const size_t L = plan.lanes;
    const int32_t n = static_cast<int32_t>(rs.comb.size());

    for (const auto &c : rs.comb) {
        if (c.kind == CompKind::Alu)
            ++plan.aluCount;
        else
            ++plan.selCount;
    }

    // ---- Combinational dependency edges (producer comb index ->
    // consumer comb index), deduplicated per consumer. Memory output
    // latches are not edges: they hold the previous cycle's value for
    // the whole comb phase, so their slots map to no producer.
    std::vector<int32_t> slotToComb(rs.numVarSlots + rs.mems.size(), -1);
    for (int32_t i = 0; i < n; ++i)
        slotToComb[rs.comb[i].slot] = i;

    // Flat (CSR) adjacency: the producers of consumer i are
    // depList[depStart[i] .. depStart[i + 1]).
    std::vector<int32_t> depList;
    std::vector<size_t> depStart(n + 1, 0);
    auto deps = [&](int32_t i) {
        return std::span<const int32_t>(depList.data() + depStart[i],
                                        depStart[i + 1] - depStart[i]);
    };
    std::vector<size_t> weight(n);
    size_t totalWeight = 0;
    for (int32_t i = 0; i < n; ++i) {
        const CombComp &c = rs.comb[i];
        weight[i] = combCost(rs, c);
        totalWeight += weight[i];
        const auto first = static_cast<std::ptrdiff_t>(depList.size());
        for (const ResolvedExpr &e : rs.exprs(c)) {
            for (const ResolvedTerm &t : rs.terms(e)) {
                int32_t j = slotToComb[t.slot];
                if (j >= 0 && j != i)
                    depList.push_back(j);
            }
        }
        std::sort(depList.begin() + first, depList.end());
        depList.erase(std::unique(depList.begin() + first, depList.end()),
                      depList.end());
        depStart[i + 1] = depList.size();
        plan.totalEdges += depStart[i + 1] - depStart[i];
    }

    // ---- Connected components of the comb network.
    UnionFind uf(n);
    for (int32_t i = 0; i < n; ++i) {
        for (int32_t j : deps(i))
            uf.unite(i, j);
    }
    std::vector<size_t> groupWeight(n, 0);
    size_t maxGroupWeight = 0;
    for (int32_t i = 0; i < n; ++i) {
        int32_t r = uf.find(i);
        if (groupWeight[r] == 0)
            ++plan.combComponents;
        groupWeight[r] += weight[i];
        maxGroupWeight = std::max(maxGroupWeight, groupWeight[r]);
    }

    std::vector<int32_t> laneOf(n, 0);
    // A component-packed schedule is worth it only when no single
    // connected component dominates the balance: allow the heaviest
    // component up to 25% over a perfect per-lane share.
    const size_t share = (totalWeight + L - 1) / std::max<size_t>(L, 1);
    const bool pack =
        L == 1 || n == 0 || maxGroupWeight * 4 <= share * 5;

    if (pack) {
        // ---- Whole components into lanes, heaviest first (LPT).
        // Zero cross-lane edges; one bulk-synchronous comb phase.
        struct Group
        {
            int32_t root;
            size_t weight;
        };
        std::vector<Group> groups;
        for (int32_t i = 0; i < n; ++i) {
            if (uf.find(i) == i)
                groups.push_back({i, groupWeight[i]});
        }
        std::stable_sort(groups.begin(), groups.end(),
                         [](const Group &a, const Group &b) {
                             return a.weight > b.weight;
                         });
        std::vector<size_t> load(L, 0);
        std::vector<int32_t> laneOfRoot(n, 0);
        for (const Group &g : groups) {
            size_t lane = lightestLane(load);
            load[lane] += g.weight;
            laneOfRoot[g.root] = static_cast<int32_t>(lane);
        }
        for (int32_t i = 0; i < n; ++i)
            laneOf[i] = laneOfRoot[uf.find(i)];

        if (n > 0) {
            plan.combPhases.emplace_back(L);
            for (int32_t i = 0; i < n; ++i)
                plan.combPhases[0][laneOf[i]].push_back(i);
        }
        plan.levels = n == 0 ? 0 : 1;
        plan.levelized = false;
    } else {
        // ---- Levelized schedule: one phase per dependency depth,
        // every lane's work at one level is independent of its peers'
        // (producers all sit at strictly lower levels, sealed by the
        // phase barrier). Lane choice is affinity-greedy: prefer the
        // lane holding most of a component's producers, unless that
        // lane is already past its balance cap for the level.
        const std::vector<int32_t> level = combLevels(rs);
        size_t levels = 0;
        for (int32_t l : level)
            levels = std::max(levels, static_cast<size_t>(l) + 1);
        std::vector<std::vector<int32_t>> byLevel(levels);
        for (int32_t i = 0; i < n; ++i)
            byLevel[level[i]].push_back(i);

        plan.combPhases.assign(levels,
                               std::vector<std::vector<int32_t>>(L));
        std::vector<size_t> affinity(L, 0);
        for (size_t lvl = 0; lvl < levels; ++lvl) {
            std::vector<int32_t> order = byLevel[lvl];
            std::stable_sort(order.begin(), order.end(),
                             [&](int32_t a, int32_t b) {
                                 return weight[a] > weight[b];
                             });
            size_t levelWeight = 0;
            size_t maxW = 0;
            for (int32_t i : order) {
                levelWeight += weight[i];
                maxW = std::max(maxW, weight[i]);
            }
            const size_t cap = (levelWeight * 5) / (L * 4) + maxW;
            std::vector<size_t> load(L, 0);
            for (int32_t i : order) {
                std::fill(affinity.begin(), affinity.end(), 0);
                for (int32_t j : deps(i))
                    affinity[laneOf[j]] += 1;
                // Best affinity among lanes under the cap; fall back
                // to the lightest lane when every lane is capped.
                int32_t lane = -1;
                for (size_t l = 0; l < L; ++l) {
                    if (load[l] + weight[i] > cap)
                        continue;
                    if (lane < 0 || affinity[l] > affinity[lane] ||
                        (affinity[l] == affinity[lane] &&
                         load[l] < load[lane])) {
                        lane = static_cast<int32_t>(l);
                    }
                }
                if (lane < 0)
                    lane = static_cast<int32_t>(lightestLane(load));
                load[lane] += weight[i];
                laneOf[i] = lane;
                plan.combPhases[lvl][lane].push_back(i);
            }
            // Restore ascending (topological) order within the lane.
            for (auto &list : plan.combPhases[lvl])
                std::sort(list.begin(), list.end());
        }
        plan.levels = levels;
        plan.levelized = true;
    }

    // Cross-lane edge count and lane weights, for reporting/tests.
    std::vector<size_t> laneWeight(L, 0);
    for (int32_t i = 0; i < n; ++i) {
        laneWeight[laneOf[i]] += weight[i];
        for (int32_t j : deps(i)) {
            if (laneOf[j] != laneOf[i])
                ++plan.crossEdges;
        }
    }
    if (n > 0) {
        plan.maxLaneWeight =
            *std::max_element(laneWeight.begin(), laneWeight.end());
        plan.minLaneWeight =
            *std::min_element(laneWeight.begin(), laneWeight.end());
    }

    // ---- Memory latch phase: every memory only reads vars and output
    // latches, so any balanced split works (LPT by latch cost).
    const int32_t nm = static_cast<int32_t>(rs.mems.size());
    plan.latchLanes.assign(L, {});
    {
        std::vector<int32_t> order(nm);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](int32_t a, int32_t b) {
                             return exprCost(rs.mems[a].addr) +
                                        exprCost(rs.mems[a].opn) >
                                    exprCost(rs.mems[b].addr) +
                                        exprCost(rs.mems[b].opn);
                         });
        std::vector<size_t> load(L, 0);
        for (int32_t mi : order) {
            size_t lane = lightestLane(load);
            load[lane] +=
                1 + exprCost(rs.mems[mi].addr) + exprCost(rs.mems[mi].opn);
            plan.latchLanes[lane].push_back(mi);
        }
        for (auto &list : plan.latchLanes)
            std::sort(list.begin(), list.end());
    }

    // ---- Memory update phase. The serial loop has an intra-phase
    // order: memory j's data expression may read memory i's output
    // latch *after* i updated it this cycle (declaration order, i < j).
    // Cluster memories whose data expressions reference other output
    // latches; a cluster executes on one lane in declaration order.
    // Clusters touching the I/O device or the trace sink go to the
    // coordinator's serial list — their side-effect order is
    // observable and must stay global declaration order.
    UnionFind muf(nm);
    for (int32_t mi = 0; mi < nm; ++mi) {
        for (const ResolvedTerm &t : rs.terms(rs.mems[mi].data)) {
            const int32_t mj = t.slot - rs.numVarSlots;
            if (mj >= 0 && mj != mi)
                muf.unite(mi, mj);
        }
    }
    std::vector<char> rootSerial(nm, 0);
    for (int32_t mi = 0; mi < nm; ++mi) {
        if (mayDoIo(rs.mems[mi]) ||
            (tracingEnabled && mayTrace(rs.mems[mi])))
            rootSerial[muf.find(mi)] = 1;
    }
    std::vector<size_t> clusterWeight(nm, 0);
    for (int32_t mi = 0; mi < nm; ++mi)
        clusterWeight[muf.find(mi)] +=
            1 + exprCost(rs.mems[mi].data);

    plan.updateLanes.assign(L, {});
    {
        std::vector<int32_t> roots;
        for (int32_t mi = 0; mi < nm; ++mi) {
            if (muf.find(mi) == mi && !rootSerial[mi])
                roots.push_back(mi);
        }
        std::stable_sort(roots.begin(), roots.end(),
                         [&](int32_t a, int32_t b) {
                             return clusterWeight[a] > clusterWeight[b];
                         });
        std::vector<size_t> load(L, 0);
        std::vector<int32_t> laneOfRoot(nm, -1);
        for (int32_t r : roots) {
            size_t lane = lightestLane(load);
            load[lane] += clusterWeight[r];
            laneOfRoot[r] = static_cast<int32_t>(lane);
        }
        for (int32_t mi = 0; mi < nm; ++mi) {
            int32_t r = muf.find(mi);
            if (rootSerial[r])
                plan.serialUpdates.push_back(mi);
            else
                plan.updateLanes[laneOfRoot[r]].push_back(mi);
        }
        // Ascending memory index == declaration order within a lane.
        for (auto &list : plan.updateLanes)
            std::sort(list.begin(), list.end());
    }

    return plan;
}

PartitionedInterpreter::PartitionedInterpreter(
    std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
    unsigned lanes)
    : Interpreter(rs, cfg),
      plan_(buildPartitionPlan(*rs, lanes, cfg.trace != nullptr)),
      pool_(plan_.lanes),
      faultKey_(plan_.lanes, -1),
      faultMsg_(plan_.lanes),
      laneStartNs_(plan_.lanes, 0),
      laneFinishNs_(plan_.lanes, 0)
{}

void
PartitionedInterpreter::recordPhaseObservations(const char *phaseName,
                                                size_t lanes)
{
    uint64_t maxFinish = 0;
    for (size_t l = 0; l < lanes; ++l)
        maxFinish = std::max(maxFinish, laneFinishNs_[l]);
    metrics::Histogram &perLane = phaseHist(phaseName);
    metrics::Histogram &barrier = barrierHist();
    const bool sampled =
        tracing::enabled() && (cycle_ & kSpanSampleMask) == 0;
    for (size_t l = 0; l < lanes; ++l) {
        const uint64_t busy = laneFinishNs_[l] - laneStartNs_[l];
        perLane.record(busy);
        // Barrier wait: how long this lane's result sat idle waiting
        // for the slowest lane of the phase.
        barrier.record(maxFinish - laneFinishNs_[l]);
        if (sampled) {
            tracing::completeEvent(
                phaseName, "partition", laneStartNs_[l], busy,
                "\"lane\":" + std::to_string(l) +
                    ",\"cycle\":" + std::to_string(cycle_),
                kLaneTidBase + static_cast<int64_t>(l));
        }
    }
}

void
PartitionedInterpreter::clearFaults()
{
    std::fill(faultKey_.begin(), faultKey_.end(), -1);
}

int32_t
PartitionedInterpreter::minFaultKey() const
{
    int32_t best = -1;
    for (int32_t k : faultKey_) {
        if (k >= 0 && (best < 0 || k < best))
            best = k;
    }
    return best;
}

void
PartitionedInterpreter::throwFault(int32_t key) const
{
    for (size_t l = 0; l < faultKey_.size(); ++l) {
        if (faultKey_[l] == key)
            throw SimError(faultMsg_[l]);
    }
    throw SimError("partitioned engine lost a captured fault");
}

void
PartitionedInterpreter::runCombPhases()
{
    const bool timed = metrics::timingEnabled();
    for (const auto &phase : plan_.combPhases) {
        clearFaults();
        pool_.parallelFor(0, phase.size(), [&](size_t lane) {
            if (timed)
                laneStartNs_[lane] = metrics::nowNs();
            for (int32_t ci : phase[lane]) {
                try {
                    evalCombOne(rs_->comb[ci]);
                } catch (const SimError &e) {
                    // Capture instead of throwing through the pool:
                    // the surfaced fault must be the lowest *schedule*
                    // index across lanes, not the lowest lane id.
                    faultKey_[lane] = ci;
                    faultMsg_[lane] = e.what();
                    break;
                }
            }
            if (timed)
                laneFinishNs_[lane] = metrics::nowNs();
        });
        if (timed)
            recordPhaseObservations("comb", phase.size());
        int32_t fault = minFaultKey();
        if (fault >= 0)
            throwFault(fault);
    }
}

void
PartitionedInterpreter::runLatchPhase()
{
    const bool timed = metrics::timingEnabled();
    pool_.parallelFor(0, plan_.latchLanes.size(), [&](size_t lane) {
        if (timed)
            laneStartNs_[lane] = metrics::nowNs();
        for (int32_t mi : plan_.latchLanes[lane])
            latchMemOne(rs_->mems[mi]);
        if (timed)
            laneFinishNs_[lane] = metrics::nowNs();
    });
    if (timed)
        recordPhaseObservations("latch", plan_.latchLanes.size());
}

void
PartitionedInterpreter::runUpdatePhase()
{
    const bool timed = metrics::timingEnabled();
    clearFaults();
    pool_.parallelFor(0, plan_.updateLanes.size(), [&](size_t lane) {
        if (timed)
            laneStartNs_[lane] = metrics::nowNs();
        for (int32_t mi : plan_.updateLanes[lane]) {
            try {
                updateMemOne(rs_->mems[mi]);
            } catch (const SimError &e) {
                faultKey_[lane] = mi;
                faultMsg_[lane] = e.what();
                break;
            }
        }
        if (timed)
            laneFinishNs_[lane] = metrics::nowNs();
    });
    if (timed)
        recordPhaseObservations("update", plan_.updateLanes.size());
    // Serial (I/O + trace) memories run on the coordinator in global
    // declaration order. If a parallel lane faulted, execute exactly
    // the prefix a serial run would have reached so the I/O stream and
    // trace bytes match the serial engine at the fault point.
    const int32_t fault = minFaultKey();
    const uint64_t tailStart = timed ? metrics::nowNs() : 0;
    for (int32_t mi : plan_.serialUpdates) {
        if (fault >= 0 && mi >= fault)
            break;
        updateMemOne(rs_->mems[mi]);
    }
    if (timed) {
        // The coordinator-only tail every lane waits behind — the
        // overlap candidate named in ROADMAP's partition item.
        static metrics::Histogram &tail = metrics::histogram(
            "partition.serial_tail_ns",
            metrics::Histogram::exponentialBounds(100, 2.0, 24));
        tail.record(metrics::nowNs() - tailStart);
    }
    if (fault >= 0)
        throwFault(fault);
}

void
PartitionedInterpreter::step()
{
    runCombPhases();
    // Aggregate comb counters are bulk-added from the plan so worker
    // lanes never share a counter; the totals per completed phase
    // match the serial engine's per-component increments.
    stats_.aluEvals += plan_.aluCount;
    stats_.selEvals += plan_.selCount;
    traceCycle();
    runLatchPhase();
    runUpdatePhase();
    ++cycle_;
    ++stats_.cycles;
}

std::unique_ptr<Engine>
makePartitionedInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                           const EngineConfig &cfg, unsigned lanes)
{
    return std::make_unique<PartitionedInterpreter>(std::move(rs), cfg,
                                                    lanes);
}

} // namespace asim

/** @file
 * The off path allocates nothing: with tracing and timing off,
 * Simulation::run on the vm makes zero heap allocations. This binary
 * replaces the global operator new with a counting one, so it lives
 * in its own test file.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/simulation.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace asim {
namespace {

TEST(RunAllocations, TracingOffVmRunMakesNoHeapAllocations)
{
    tracing::stop();
    metrics::setTimingEnabled(false);
    SimulationOptions opts;
    opts.resolved = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(8, 1000)));
    opts.engine = "vm";
    Simulation sim(opts);
    sim.run(1024); // first-run work is not the steady state

    const uint64_t before = g_allocations.load();
    sim.run(1024);
    const uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u)
        << "Simulation::run allocated with tracing off";
    EXPECT_EQ(sim.cycle(), 2048u);
}

} // namespace
} // namespace asim

/** @file Interpreter-specific tests (the ASIM baseline engine). */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/engine.hh"

namespace asim {
namespace {

TEST(Interpreter, CounterMachine)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 100));
    auto e = makeInterpreter(rs);
    e->run(20);
    // 4-bit counter wraps at 16: after 20 cycles the latch holds 4.
    EXPECT_EQ(e->value("count") & 0xf, 4);
}

TEST(Interpreter, TrafficLight)
{
    ResolvedSpec rs = resolveText(trafficLightSpec(64));
    auto e = makeInterpreter(rs);
    // Phase durations: green(0) 4 cycles, yellow(1) 1, red(2) 3.
    // The first two cycles are a startup transient: initial values
    // live in memory *cells*, not output latches (thesis semantics),
    // so a write-only register starts from a zero latch.
    std::vector<int32_t> phases;
    for (int i = 0; i < 18; ++i) {
        phases.push_back(e->value("phase"));
        e->step();
    }
    EXPECT_EQ(phases,
              (std::vector<int32_t>{0, 1, 2, 2, 2, 0, 0, 0, 0, 1, 2, 2,
                                    2, 0, 0, 0, 0, 1}));
}

TEST(Interpreter, RunAccumulatesCycles)
{
    ResolvedSpec rs = resolveText(counterSpec(8, 10));
    auto e = makeInterpreter(rs);
    e->run(3);
    e->run(4);
    EXPECT_EQ(e->cycle(), 7u);
    EXPECT_EQ(e->stats().cycles, 7u);
}

} // namespace
} // namespace asim

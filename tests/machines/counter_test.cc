/** @file Tests for the introductory machines. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/engine.hh"
#include "support/logging.hh"

namespace asim {
namespace {

TEST(Counter, WrapsAtWidth)
{
    auto e = makeVm(resolveText(counterSpec(3, 100)));
    for (int i = 1; i <= 20; ++i) {
        e->step();
        EXPECT_EQ(e->value("count") & 7, i % 8) << "cycle " << i;
    }
}

TEST(Counter, WidthValidation)
{
    EXPECT_THROW(counterSpec(0, 10), SpecError);
    EXPECT_THROW(counterSpec(31, 10), SpecError);
    EXPECT_NO_THROW(counterSpec(30, 10));
}

TEST(Counter, CyclesDirectivePropagates)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 123));
    EXPECT_TRUE(rs.cyclesSpecified);
    EXPECT_EQ(rs.cycles, 123);
}

TEST(TrafficLight, PeriodIsEight)
{
    auto e = makeVm(resolveText(trafficLightSpec(100)));
    // Skip the 1-cycle startup transient, then measure one period.
    e->run(5); // now in a steady state (phase 0 run started)
    std::vector<int32_t> a, b;
    for (int i = 0; i < 8; ++i) {
        a.push_back(e->value("phase"));
        e->step();
    }
    for (int i = 0; i < 8; ++i) {
        b.push_back(e->value("phase"));
        e->step();
    }
    EXPECT_EQ(a, b) << "phase sequence must be periodic";
}

TEST(TrafficLight, SpendsFourCyclesGreen)
{
    auto e = makeVm(resolveText(trafficLightSpec(100)));
    e->run(2); // transient
    int green = 0, yellow = 0, red = 0;
    for (int i = 0; i < 16; ++i) {
        switch (e->value("phase")) {
          case 0:
            ++green;
            break;
          case 1:
            ++yellow;
            break;
          case 2:
            ++red;
            break;
          default:
            FAIL() << "impossible phase";
        }
        e->step();
    }
    EXPECT_EQ(green, 8);
    EXPECT_EQ(yellow, 2);
    EXPECT_EQ(red, 6);
}

} // namespace
} // namespace asim

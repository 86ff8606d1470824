/** @file Unit tests for sim::EnergyMeter. */
#include <gtest/gtest.h>

#include <limits>

#include "sim/energy_meter.h"

namespace powerdial::sim {
namespace {

TEST(EnergyMeter, SamplesAtFixedInterval)
{
    Machine m;
    m.idleFor(5.0);
    EnergyMeter meter(1.0);
    const auto samples = meter.sample(m);
    ASSERT_EQ(samples.size(), 5u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_NEAR(samples[i].time_s, static_cast<double>(i + 1), 1e-9);
        EXPECT_NEAR(samples[i].watts, m.powerModel().idleWatts(), 1e-9);
    }
}

TEST(EnergyMeter, MeanOfSamplesMatchesMeanPower)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9 * 2.0); // 2 s busy.
    m.idleFor(2.0);         // 2 s idle.
    EnergyMeter meter(1.0);
    const auto samples = meter.sample(m);
    EXPECT_NEAR(EnergyMeter::meanWatts(samples), m.meanWatts(0.0, 4.0),
                1e-9);
}

TEST(EnergyMeter, PartialTrailingBinIsDropped)
{
    Machine m;
    m.idleFor(2.5);
    EnergyMeter meter(1.0);
    EXPECT_EQ(meter.sample(m).size(), 2u);
}

TEST(EnergyMeter, SubIntervalSampling)
{
    Machine m;
    m.idleFor(1.0);
    EnergyMeter meter(0.25);
    EXPECT_EQ(meter.sample(m).size(), 4u);
}

TEST(EnergyMeter, MeanOfNoSamplesIsZero)
{
    EXPECT_DOUBLE_EQ(EnergyMeter::meanWatts({}), 0.0);
}

TEST(EnergyMeter, RejectsNonPositiveInterval)
{
    EXPECT_THROW(EnergyMeter{0.0}, std::invalid_argument);
    EXPECT_THROW(EnergyMeter{-1.0}, std::invalid_argument);
}

TEST(EnergyMeter, RejectsNonFiniteInterval)
{
    // Both rows pass an `interval <= 0` check.
    for (const double interval : {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(interval);
        EXPECT_THROW(EnergyMeter{interval}, std::invalid_argument);
    }
}

TEST(EnergyMeter, WindowedSampling)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // [0,1) busy
    m.idleFor(1.0);   // [1,2) idle
    EnergyMeter meter(1.0);
    const auto idle_only = meter.sample(m, 1.0, 2.0);
    ASSERT_EQ(idle_only.size(), 1u);
    EXPECT_NEAR(idle_only[0].watts, m.powerModel().idleWatts(), 1e-9);
}

} // namespace
} // namespace powerdial::sim

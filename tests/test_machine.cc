/** @file Unit tests for sim::Machine. */
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "heartbeats/heartbeat.h"
#include "sim/machine.h"
#include "sim/virtual_clock.h"

namespace powerdial::sim {
namespace {

TEST(Machine, ExecuteAdvancesTimeByCyclesOverFrequency)
{
    Machine m;
    const double dt = m.execute(2.4e9); // One second at 2.4 GHz.
    EXPECT_NEAR(dt, 1.0, 1e-12);
    EXPECT_NEAR(m.now(), 1.0, 1e-12);
}

TEST(Machine, LowerPStateSlowsExecution)
{
    Machine m;
    m.setPState(m.scale().lowestState());
    const double dt = m.execute(1.6e9);
    EXPECT_NEAR(dt, 1.0, 1e-12);
}

TEST(Machine, FrequencyDropStretchesWorkByRatio)
{
    // The DVFS premise: same work, 2.4/1.6 = 1.5x longer.
    Machine a, b;
    const double cycles = 1e9;
    const double t_fast = a.execute(cycles);
    b.setPState(b.scale().lowestState());
    const double t_slow = b.execute(cycles);
    EXPECT_NEAR(t_slow / t_fast, 2.4 / 1.6, 1e-9);
}

TEST(Machine, ShareScalesThroughput)
{
    Machine m;
    m.setShare(0.25);
    const double dt = m.execute(2.4e9);
    EXPECT_NEAR(dt, 4.0, 1e-9);
}

TEST(Machine, ShareValidation)
{
    Machine m;
    EXPECT_THROW(m.setShare(0.0), std::invalid_argument);
    EXPECT_THROW(m.setShare(1.5), std::invalid_argument);
    m.setShare(1.0); // OK.
}

TEST(Machine, NegativeWorkThrows)
{
    Machine m;
    EXPECT_THROW(m.execute(-1.0), std::invalid_argument);
}

TEST(Machine, ZeroWorkIsFree)
{
    Machine m;
    EXPECT_DOUBLE_EQ(m.execute(0.0), 0.0);
    EXPECT_DOUBLE_EQ(m.now(), 0.0);
    EXPECT_DOUBLE_EQ(m.energyJoules(), 0.0);
}

TEST(Machine, IdleDrawsIdlePower)
{
    Machine m;
    m.idleFor(10.0);
    EXPECT_NEAR(m.energyJoules(),
                10.0 * m.powerModel().idleWatts(), 1e-9);
}

TEST(Machine, IdleUntilIsAbsolute)
{
    Machine m;
    m.idleUntil(2.0);
    m.idleUntil(1.0); // No-op, in the past.
    EXPECT_DOUBLE_EQ(m.now(), 2.0);
}

TEST(Machine, EnergyIntegratesPowerOverTime)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // 1 s at peak power.
    EXPECT_NEAR(m.energyJoules(), m.powerModel().peakWatts(), 1e-6);

    // After every setter that moves the frequency or the utilisation,
    // the next busy and idle spans draw exactly the power model's
    // watts at the machine's current state.
    const std::vector<std::pair<std::string, std::function<void()>>>
        setters = {
            {"setPState(2)", [&m] { m.setPState(2); }},
            {"setPStateCap(4)", [&m] { m.setPStateCap(4); }},
            {"setPState(0) under the cap", [&m] { m.setPState(0); }},
            {"setPStateCap(0)", [&m] { m.setPStateCap(0); }},
            {"setPState(6)", [&m] { m.setPState(6); }},
            {"setUtilization(0.3)", [&m] { m.setUtilization(0.3); }},
            {"setUtilization(1.7)", [&m] { m.setUtilization(1.7); }},
            {"setUtilization(-2)", [&m] { m.setUtilization(-2.0); }},
            {"setPStateCap(1)", [&m] { m.setPStateCap(1); }},
            {"setUtilization(-0.5)", [&m] { m.setUtilization(-0.5); }},
        };
    for (const auto &[name, set] : setters) {
        SCOPED_TRACE(name);
        set();
        const double hz = m.scale().frequencyHz(m.pstate());
        EXPECT_EQ(m.frequencyHz(), hz);
        const double u = m.utilization() >= 0.0
            ? m.utilization()
            : 1.0 / static_cast<double>(m.cores());
        double before = m.energyJoules();
        const double busy = m.execute(1.3e9);
        EXPECT_EQ(busy, 1.3e9 / (hz * m.speedFactor() * m.share()));
        EXPECT_EQ(m.energyJoules(),
                  before + m.powerModel().watts(hz, u) * busy);
        before = m.energyJoules();
        m.idleFor(0.37);
        EXPECT_EQ(m.energyJoules(),
                  before + m.powerModel().watts(hz, 0.0) * 0.37);
    }
}

TEST(Machine, DefaultUtilizationIsOneCore)
{
    Machine m; // 8 cores.
    m.execute(2.4e9);
    const double expected =
        m.powerModel().watts(2.4e9, 1.0 / 8.0);
    EXPECT_NEAR(m.energyJoules(), expected, 1e-6);
}

TEST(Machine, MeanWattsOverWindow)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // [0, 1): peak.
    m.idleFor(1.0);   // [1, 2): idle.
    const double peak = m.powerModel().peakWatts();
    const double idle = m.powerModel().idleWatts();
    EXPECT_NEAR(m.meanWatts(0.0, 1.0), peak, 1e-9);
    EXPECT_NEAR(m.meanWatts(1.0, 2.0), idle, 1e-9);
    EXPECT_NEAR(m.meanWatts(0.0, 2.0), 0.5 * (peak + idle), 1e-9);
    EXPECT_NEAR(m.meanWatts(), 0.5 * (peak + idle), 1e-9);
}

TEST(Machine, MeanWattsEmptyWindowIsZero)
{
    Machine m;
    EXPECT_DOUBLE_EQ(m.meanWatts(1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(m.meanWatts(2.0, 1.0), 0.0);
}

TEST(Machine, PowerTraceCoalescesEqualPowerSegments)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(1e9);
    m.execute(1e9); // Same power: should extend the same segment.
    EXPECT_EQ(m.powerTrace().size(), 1u);
}

TEST(Machine, PowerTraceSplitsOnPowerChange)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(1e9);
    m.idleFor(0.5);
    EXPECT_EQ(m.powerTrace().size(), 2u);
    EXPECT_GT(m.powerTrace()[0].watts, m.powerTrace()[1].watts);
}

TEST(Machine, BadPStateThrows)
{
    Machine m;
    EXPECT_THROW(m.setPState(99), std::out_of_range);
}

TEST(Machine, ZeroCoresRejected)
{
    Machine::Config config;
    config.cores = 0;
    EXPECT_THROW(Machine{config}, std::invalid_argument);
}

TEST(Machine, NegativeIdleThrows)
{
    Machine m;
    EXPECT_THROW(m.idleFor(-1.0), std::invalid_argument);
}

TEST(Machine, PStateCapClampsRequests)
{
    Machine m;
    m.setPStateCap(3);
    // Installing the cap slows the machine immediately...
    EXPECT_EQ(m.pstate(), 3u);
    // ...and later requests for faster states clamp against it.
    m.setPState(0);
    EXPECT_EQ(m.pstate(), 3u);
    m.setPState(5); // Slower than the cap stays allowed.
    EXPECT_EQ(m.pstate(), 5u);
}

TEST(Machine, PStateCapIsRemovable)
{
    Machine m;
    m.setPStateCap(3);
    m.setPStateCap(0);
    EXPECT_EQ(m.pstateCap(), 0u);
    // Removing the cap does not speed the machine up by itself.
    EXPECT_EQ(m.pstate(), 3u);
    m.setPState(0);
    EXPECT_EQ(m.pstate(), 0u);
}

TEST(Machine, PStateCapSettableMidRun)
{
    // The fleet arbiter re-caps machines between control epochs while
    // work is in flight; the new cap governs subsequent work only.
    Machine m;
    const double t_fast = m.execute(2.4e9);
    m.setPStateCap(m.scale().lowestState());
    const double t_slow = m.execute(1.6e9);
    EXPECT_NEAR(t_fast, 1.0, 1e-12);
    EXPECT_NEAR(t_slow, 1.0, 1e-12);
}

TEST(Machine, BadPStateCapThrows)
{
    Machine m;
    EXPECT_THROW(m.setPStateCap(99), std::out_of_range);
}

TEST(NanInputs, PerBeatEntryPointsRejectNaN)
{
    // Every per-beat input check must reject NaN, which fails every
    // ordered comparison and so slips past a plain `x < 0` test.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::pair<std::string, std::function<void()>>>
        entry_points = {
            {"Monitor::beat, first beat",
             [nan] {
                 hb::Monitor monitor(4, {1.0, 1.0});
                 monitor.beat(nan);
             }},
            {"Monitor::beat, later beat",
             [nan] {
                 hb::Monitor monitor(4, {1.0, 1.0});
                 monitor.beat(1.0);
                 monitor.beat(nan);
             }},
            {"Machine::execute", [nan] { Machine().execute(nan); }},
            {"Machine::idleFor", [nan] { Machine().idleFor(nan); }},
            {"Machine::setShare", [nan] { Machine().setShare(nan); }},
            {"Machine::setUtilization",
             [nan] { Machine().setUtilization(nan); }},
            {"VirtualClock::advance",
             [nan] { VirtualClock().advance(nan); }},
        };
    for (const auto &[name, call] : entry_points) {
        SCOPED_TRACE(name);
        EXPECT_THROW(call(), std::invalid_argument);
    }
}

} // namespace
} // namespace powerdial::sim

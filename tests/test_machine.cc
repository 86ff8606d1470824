/** @file Unit tests for sim::Machine. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "heartbeats/heartbeat.h"
#include "sim/machine.h"
#include "sim/machine_catalog.h"
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

// meanWatts() averages over the run's whole window, [0, now): energy
// over elapsed time.
TEST(Machine, MeanWattsOverWindow)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // [0, 1): peak.
    m.idleFor(1.0);   // [1, 2): idle.
    const double peak = m.powerModel().peakWatts();
    const double idle = m.powerModel().idleWatts();
    EXPECT_NEAR(m.meanWatts(), 0.5 * (peak + idle), 1e-9);
    EXPECT_EQ(m.meanWatts(), m.energyJoules() / m.now());

    // Mixed busy, idle and P-state steps: always exactly the energy
    // account over the clock.
    const std::vector<std::pair<std::string, std::function<void()>>>
        steps = {
            {"setPState(3)", [&m] { m.setPState(3); }},
            {"execute(1.3e9)", [&m] { m.execute(1.3e9); }},
            {"setUtilization(0.3)", [&m] { m.setUtilization(0.3); }},
            {"idleFor(0.37)", [&m] { m.idleFor(0.37); }},
            {"setPStateCap(5)", [&m] { m.setPStateCap(5); }},
            {"execute(7e8)", [&m] { m.execute(7e8); }},
            {"idleUntil(4.2)", [&m] { m.idleUntil(4.2); }},
            {"setPState(6)", [&m] { m.setPState(6); }},
            {"execute(3.3e8)", [&m] { m.execute(3.3e8); }},
        };
    for (const auto &[name, step] : steps) {
        SCOPED_TRACE(name);
        step();
        EXPECT_EQ(m.meanWatts(), m.energyJoules() / m.now());
    }
}

TEST(Machine, MeanWattsEmptyWindowIsZero)
{
    Machine m;
    EXPECT_EQ(m.meanWatts(), 0.0);
    m.execute(0.0); // No time passes.
    EXPECT_EQ(m.meanWatts(), 0.0);

    m.execute(2.4e9);
    m.idleFor(0.5);
    ASSERT_GT(m.meanWatts(), 0.0);
    m.reset(); // Back to an empty window.
    EXPECT_EQ(m.meanWatts(), 0.0);
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
                 hb::Monitor monitor(4);
                 monitor.beat(nan);
             }},
            {"Monitor::beat, later beat",
             [nan] {
                 hb::Monitor monitor(4);
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

/** Assert @p a and @p b are in the same observable state, exactly. */
void
expectSameMachineState(const Machine &a, const Machine &b)
{
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.pstate(), b.pstate());
    EXPECT_EQ(a.pstateCap(), b.pstateCap());
    EXPECT_EQ(a.frequencyHz(), b.frequencyHz());
    EXPECT_EQ(a.speedRatio(), b.speedRatio());
    EXPECT_EQ(a.scale().frequencies(), b.scale().frequencies());
    EXPECT_EQ(a.powerModel().idleWatts(), b.powerModel().idleWatts());
    EXPECT_EQ(a.powerModel().peakWatts(), b.powerModel().peakWatts());
    EXPECT_EQ(a.cores(), b.cores());
    EXPECT_EQ(a.speedFactor(), b.speedFactor());
    EXPECT_EQ(a.share(), b.share());
    EXPECT_EQ(a.utilization(), b.utilization());
    EXPECT_EQ(a.energyJoules(), b.energyJoules());
}

TEST(Machine, ResetIsIndistinguishableFromConstruction)
{
    // A machine driven through every setter, then reset to another
    // class's configuration, must behave bit for bit like a machine
    // built from that configuration — before and after more work.
    Machine::Config little;
    little.scale = FrequencyScale({1.8e9, 1.2e9});
    little.power.idle_watts = 40.0;
    little.power.peak_watts = 90.0;
    little.power.f_min_hz = 1.2e9;
    little.power.f_max_hz = 1.8e9;
    little.cores = 2;
    little.speed_factor = 0.6;

    Machine reused;
    reused.setPStateCap(2);
    reused.setPState(4);
    reused.setShare(0.5);
    reused.setUtilization(0.75);
    reused.execute(3e9);
    reused.idleFor(0.25);
    reused.execute(1e9);
    ASSERT_GT(reused.energyJoules(), 0.0);

    reused.reset(little);
    const Machine fresh(little);
    expectSameMachineState(reused, fresh);

    Machine copy = fresh;
    for (Machine *m : {&reused, &copy}) {
        m->setShare(0.5);
        m->execute(2e9);
        m->setPState(1);
        m->idleFor(0.5);
        m->execute(1e9);
    }
    expectSameMachineState(reused, copy);

    // Back to the default class, too.
    reused.reset(Machine::Config{});
    expectSameMachineState(reused, Machine());
}

TEST(Machine, ResetRejectsBadConfigAndKeepsState)
{
    Machine m;
    m.execute(1e9);
    const double now = m.now();
    const double energy = m.energyJoules();
    Machine::Config no_cores;
    no_cores.cores = 0;
    EXPECT_THROW(m.reset(no_cores), std::invalid_argument);
    Machine::Config no_speed;
    no_speed.speed_factor = 0.0;
    EXPECT_THROW(m.reset(no_speed), std::invalid_argument);
    EXPECT_EQ(m.now(), now);
    EXPECT_EQ(m.energyJoules(), energy);
    EXPECT_EQ(m.cores(), Machine::Config{}.cores);
}

TEST(Machine, RejectsNonFiniteSpeedFactor)
{
    // Both rows pass a `speed_factor <= 0` check. Construction and
    // reset(config) reject them alike; a rejected reset changes
    // nothing.
    for (const double speed : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(speed);
        Machine::Config config;
        config.speed_factor = speed;
        EXPECT_THROW(Machine{config}, std::invalid_argument);
        Machine m;
        m.execute(1e9);
        const double energy = m.energyJoules();
        EXPECT_THROW(m.reset(config), std::invalid_argument);
        EXPECT_EQ(m.speedFactor(), 1.0);
        EXPECT_EQ(m.energyJoules(), energy);
    }
}

// ---------------------------------------------------------------------
// The per-P-state power table against the power model it tabulates.
// ---------------------------------------------------------------------

/** Equal bit for bit, or both NaN. */
bool
sameValue(double a, double b)
{
    return std::isnan(a) ? std::isnan(b) : a == b;
}

/** The configurations of every built-in catalog class, plus a
 *  two-state class unlike either. */
std::vector<Machine::Config>
catalogClasses()
{
    std::vector<Machine::Config> classes;
    const MachineCatalog catalog = MachineCatalog::bigLittle();
    for (const MachineClass &c : catalog.classes())
        classes.push_back(c.config);
    Machine::Config tiny;
    tiny.scale = FrequencyScale({1.8e9, 1.2e9});
    tiny.power.idle_watts = 40.0;
    tiny.power.peak_watts = 90.0;
    tiny.power.f_min_hz = 1.2e9;
    tiny.power.f_max_hz = 1.8e9;
    tiny.cores = 2;
    tiny.speed_factor = 0.6;
    classes.push_back(tiny);
    return classes;
}

/** PowerModel::watts as it evaluated before machines tabulated its
 *  dynamic fraction, verbatim: the expression and evaluation order
 *  every power read must keep. */
double
referenceWatts(const PowerModel &model, double freq_hz, double utilization)
{
    const PowerModelParams &params = model.params();
    const double dyn_norm = params.f_max_hz * params.v_max * params.v_max;
    const double u = std::clamp(utilization, 0.0, 1.0);
    const double v = model.voltage(freq_hz);
    const double dyn_frac = (freq_hz * v * v) / dyn_norm;
    const double dyn_max = params.peak_watts - params.idle_watts;
    return params.idle_watts + u * dyn_frac * dyn_max;
}

/** Assert wattsAt(s, u) and PowerModel::watts(frequencyHz(s), u) are
 *  the reference draw at every P-state, for utilisations in, below
 *  and above [0, 1] and NaN. */
void
expectTableMatchesModel(const Machine &m)
{
    // Non-dyadic utilisations round in every product, so a changed
    // evaluation order shows; the others cover the clamp and NaN.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t s = 0; s < m.scale().states(); ++s) {
        for (const double u : {-0.5, 0.0, 0.125, 0.3, 1.0 / 3.0, 0.7,
                               0.123456789, 1.0, 1.7, nan}) {
            SCOPED_TRACE(::testing::Message()
                         << "P-state " << s << " utilization " << u);
            const double hz = m.scale().frequencyHz(s);
            const double expected =
                referenceWatts(m.powerModel(), hz, u);
            EXPECT_TRUE(sameValue(m.wattsAt(s, u), expected));
            EXPECT_TRUE(
                sameValue(m.powerModel().watts(hz, u), expected));
        }
    }
    EXPECT_THROW(m.wattsAt(m.scale().states(), 0.5), std::out_of_range);
}

TEST(Machine, PowerTableMatchesThePowerModelForEveryClass)
{
    const std::vector<Machine::Config> classes = catalogClasses();
    Machine reused(classes.back());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        SCOPED_TRACE(::testing::Message() << "class " << c);
        expectTableMatchesModel(Machine(classes[c]));
        // A reset from another class rebuilds the table in place.
        reused.reset(classes[c]);
        expectTableMatchesModel(reused);
        expectSameMachineState(reused, Machine(classes[c]));

        // The cached busy and idle draw and speed ratio at every
        // P-state and utilisation setting (negative restores the
        // one-core default; above 1 clamps).
        for (std::size_t s = 0; s < classes[c].scale.states(); ++s) {
            for (const double u : {-0.5, 0.0, 0.125, 1.0, 1.7}) {
                SCOPED_TRACE(::testing::Message()
                             << "P-state " << s << " utilization " << u);
                const auto fresh = [&] {
                    Machine m(classes[c]);
                    m.setPState(s);
                    m.setUtilization(u);
                    return m;
                };
                // One second of work: a fresh machine's energy is then
                // exactly its busy draw.
                Machine busy = fresh();
                const double util = busy.utilization() >= 0.0
                    ? busy.utilization()
                    : 1.0 / static_cast<double>(busy.cores());
                const double dt = busy.execute(busy.effectiveHz());
                ASSERT_EQ(dt, 1.0);
                EXPECT_EQ(busy.energyJoules(),
                          referenceWatts(busy.powerModel(),
                                         busy.frequencyHz(), util) *
                              dt);
                Machine idle = fresh();
                idle.idleFor(0.5);
                EXPECT_EQ(idle.energyJoules(),
                          referenceWatts(idle.powerModel(),
                                         idle.frequencyHz(), 0.0) *
                              0.5);
                EXPECT_EQ(busy.speedRatio(),
                          std::min(1.0, busy.effectiveHz() /
                                            busy.scale().maxHz()));
            }
        }
    }
}

TEST(Machine, ResetWithoutConfigRewindsTheSameClass)
{
    // The fleet's same-class rewind: a machine driven through every
    // setter, then reset(), is a fresh machine of its class.
    const std::vector<Machine::Config> classes = catalogClasses();
    Machine reused(classes[0]);
    reused.reset(classes[1]);
    reused.setPStateCap(1);
    reused.setPState(3);
    reused.setShare(0.5);
    reused.setUtilization(0.75);
    reused.execute(3e9);
    reused.idleFor(0.25);
    reused.reset();
    const Machine fresh(classes[1]);
    expectSameMachineState(reused, fresh);
    expectTableMatchesModel(reused);
    Machine copy = fresh;
    for (Machine *m : {&reused, &copy}) {
        m->setPState(2);
        m->execute(2e9);
        m->idleFor(0.5);
    }
    expectSameMachineState(reused, copy);
}

} // namespace
} // namespace powerdial::sim

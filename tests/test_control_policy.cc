/** @file Unit and property tests for the ControlPolicy seam. */
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/control_policy.h"

namespace powerdial::core {
namespace {

ControlSetup
setup(double target = 10.0)
{
    ControlSetup s;
    s.baseline_rate = 10.0;
    s.target_rate = target;
    s.min_speedup = 1.0;
    s.max_speedup = 100.0;
    return s;
}

/**
 * Simulate the closed loop of paper Equation 2: the plant responds
 * with h(t+1) = b_effective * s(t). Returns the heart-rate series.
 */
std::vector<double>
simulateLoop(ControlPolicy &policy, double b_effective, int steps,
             double h0)
{
    std::vector<double> rates{h0};
    double h = h0;
    for (int t = 0; t < steps; ++t) {
        const double s = policy.update(h);
        h = b_effective * s;
        rates.push_back(h);
    }
    return rates;
}

// ---------------------------------------------------------------------------
// DeadbeatPolicy
// ---------------------------------------------------------------------------

TEST(DeadbeatPolicy, MatchesHeartRateControllerStepForStep)
{
    // The law moved here from HeartRateController: every update must
    // return the exact bits the old update produced. The second setup
    // saturates at both ends of the actuation range.
    auto wide = setup(14.0);
    auto narrow = setup(14.0);
    narrow.max_speedup = 1.6;
    for (const ControlSetup &s : {wide, narrow}) {
        DeadbeatPolicy policy(0.75);
        policy.begin(s);

        // HeartRateController::update, verbatim over its state.
        const double gain = 0.75;
        double speedup = s.min_speedup;
        const auto reference = [&](double observed_rate) {
            const double error = s.target_rate - observed_rate;
            speedup += gain * error / s.baseline_rate;
            speedup = std::clamp(speedup, s.min_speedup, s.max_speedup);
            return speedup;
        };

        double h = 6.0;
        for (int t = 0; t < 50; ++t) {
            EXPECT_EQ(policy.update(h), reference(h)) << "step " << t;
            h = 3.0 + 3.1 * static_cast<double>(t % 7);
        }
    }
}

TEST(DeadbeatPolicy, DeadbeatConvergesInOneStepWithExactModel)
{
    DeadbeatPolicy policy;
    auto s = setup(15.0);
    policy.begin(s);
    const auto rates = simulateLoop(policy, 10.0, 5, 10.0);
    for (std::size_t t = 1; t < rates.size(); ++t)
        EXPECT_NEAR(rates[t], 15.0, 1e-9);
}

TEST(DeadbeatPolicy, BeginResetsIntegrator)
{
    DeadbeatPolicy policy;
    policy.begin(setup());
    policy.update(2.0); // Wind the integrator up.
    policy.begin(setup());
    // Fresh integrator: first command from the floor again.
    const double first = policy.update(10.0);
    EXPECT_DOUBLE_EQ(first, 1.0);
}

TEST(DeadbeatPolicy, Validation)
{
    EXPECT_THROW(DeadbeatPolicy{0.0}, std::invalid_argument);
    EXPECT_THROW(DeadbeatPolicy{-1.0}, std::invalid_argument);
    DeadbeatPolicy fresh;
    EXPECT_THROW(fresh.update(1.0), std::logic_error);
    EXPECT_EQ(DeadbeatPolicy().name(), "deadbeat");
    EXPECT_EQ(DeadbeatPolicy(0.5).name(), "integral");
}

// ---------------------------------------------------------------------------
// The paper's controller (section 2.3.2): the closed-loop behaviour of
// the integral law, as DeadbeatPolicy runs it.
// ---------------------------------------------------------------------------

TEST(Controller, DeadbeatConvergesInOneStepWithExactModel)
{
    // Paper section 2.3.2: F_loop(z) = 1/z — with an exact model of b
    // the loop lands on target in a single control period. The plant
    // starts at its honest baseline output (h = b * s = 10) and the
    // target is raised to 15. The law is built by the default factory,
    // as a session builds it.
    const auto policy = makeDeadbeatPolicy()();
    policy->begin(setup(15.0));
    const auto rates = simulateLoop(*policy, 10.0, 5, 10.0);
    for (std::size_t t = 1; t < rates.size(); ++t)
        EXPECT_NEAR(rates[t], 15.0, 1e-9);
}

TEST(Controller, GeometricConvergenceUnderModelMismatch)
{
    // Under a 2.4 -> 1.6 GHz cap the true gain is b_eff = (2/3) b, so
    // the closed-loop pole moves from 0 to 1 - b_eff/b = 1/3: the
    // error must decay by that ratio each period and still converge.
    DeadbeatPolicy policy;
    policy.begin(setup());
    const double b_eff = 10.0 * (1.6 / 2.4);
    const auto rates = simulateLoop(policy, b_eff, 40, b_eff);
    for (std::size_t t = 2; t + 1 < rates.size(); ++t) {
        const double e0 = std::abs(rates[t] - 10.0);
        const double e1 = std::abs(rates[t + 1] - 10.0);
        if (e0 < 1e-8)
            break; // Below floating-point resolution of the ratio.
        EXPECT_NEAR(e1 / e0, 1.0 / 3.0, 1e-3);
    }
    EXPECT_NEAR(rates.back(), 10.0, 1e-9);
}

TEST(Controller, ConvergesFromAboveTarget)
{
    // Cap lifted: the platform is faster than the integrator expects.
    DeadbeatPolicy policy;
    policy.begin(setup());
    // Drive the integrator up first.
    policy.update(6.0);
    policy.update(10.0);
    const auto rates = simulateLoop(policy, 10.0, 5, 15.0);
    EXPECT_NEAR(rates.back(), 10.0, 1e-9);
}

TEST(Controller, SpeedupClampedToActuationRange)
{
    auto s = setup();
    s.max_speedup = 2.0;
    DeadbeatPolicy policy;
    policy.begin(s);
    // Persistent large error: the integrator must saturate at
    // max_speedup instead of winding up.
    policy.update(0.5);
    policy.update(0.5);
    EXPECT_DOUBLE_EQ(policy.update(0.5), 2.0);
    // Rate far above target: clamped at the baseline floor.
    policy.begin(s);
    EXPECT_DOUBLE_EQ(policy.update(100.0), 1.0);
}

TEST(Controller, Validation)
{
    // Every law's begin() makes the same setup check.
    for (const PolicyFactory &make :
         {makeDeadbeatPolicy(), makePidPolicy(),
          makeGainScheduledPolicy()}) {
        const auto policy = make();
        SCOPED_TRACE(policy->name());
        auto bad = setup();
        bad.baseline_rate = 0.0;
        EXPECT_THROW(policy->begin(bad), std::invalid_argument);
        bad = setup();
        bad.target_rate = -1.0;
        EXPECT_THROW(policy->begin(bad), std::invalid_argument);
        bad = setup();
        bad.max_speedup = 0.5;
        EXPECT_THROW(policy->begin(bad), std::invalid_argument);
    }
}

/**
 * Property: for stable gains (0 < k < 2) the loop converges to the
 * target under a capacity disturbance; the error decays as |1 - k|^t.
 */
class StableGains : public ::testing::TestWithParam<double>
{
};

TEST_P(StableGains, LoopConvergesUnderDisturbance)
{
    const double gain = GetParam();
    DeadbeatPolicy policy(gain);
    policy.begin(setup());
    const double b_eff = 10.0 * (1.6 / 2.4);
    const auto rates = simulateLoop(policy, b_eff, 80, b_eff);
    EXPECT_NEAR(rates.back(), 10.0, 1e-3)
        << "gain " << gain << " failed to converge";
}

INSTANTIATE_TEST_SUITE_P(Gains, StableGains,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0, 1.25,
                                           1.5, 1.9));

/** Property: gains beyond 2 oscillate without converging. */
TEST(Controller, UnstableGainDiverges)
{
    // Pole at 1 - k = -1.5 when the plant matches the model: |z| > 1.
    // The first command lands one unit above the set point g/b = 1000,
    // far from both ends of the actuation range, so no clamp bounds
    // the oscillation.
    auto s = setup(1e4);
    s.max_speedup = 1e9;
    DeadbeatPolicy policy(2.5);
    policy.begin(s);
    const auto rates = simulateLoop(policy, 10.0, 6, 6000.0);
    EXPECT_DOUBLE_EQ(rates[1], 10010.0);
    // Error grows geometrically (|pole| = 1.5) rather than decaying.
    EXPECT_GT(std::abs(rates[3] - 1e4), std::abs(rates[1] - 1e4));
    EXPECT_GT(std::abs(rates[5] - 1e4), std::abs(rates[3] - 1e4));
}

// ---------------------------------------------------------------------------
// PidPolicy
// ---------------------------------------------------------------------------

TEST(PidPolicy, PureIntegralReducesToDeadbeat)
{
    // kp = kd = 0, ki = 1: the PID law degenerates to the paper's
    // deadbeat integral law.
    PidGains gains;
    gains.kp = 0.0;
    gains.ki = 1.0;
    gains.kd = 0.0;
    PidPolicy pid(gains);
    pid.begin(setup(15.0));
    DeadbeatPolicy deadbeat;
    deadbeat.begin(setup(15.0));
    double h = 10.0;
    for (int t = 0; t < 20; ++t) {
        EXPECT_NEAR(pid.update(h), deadbeat.update(h), 1e-12);
        h = 5.0 + static_cast<double>(t);
    }
}

TEST(PidPolicy, ConvergesUnderCapacityDisturbance)
{
    // 2.4 -> 1.6 GHz cap: b_eff = (2/3) b. The loop must converge to
    // the target with zero steady-state error (the integral term).
    PidPolicy policy;
    policy.begin(setup());
    const double b_eff = 10.0 * (1.6 / 2.4);
    const auto rates = simulateLoop(policy, b_eff, 120, b_eff);
    EXPECT_NEAR(rates.back(), 10.0, 1e-6);
}

TEST(PidPolicy, ConvergesFromAboveTarget)
{
    PidPolicy policy;
    policy.begin(setup());
    const auto rates = simulateLoop(policy, 10.0, 60, 15.0);
    EXPECT_NEAR(rates.back(), 10.0, 1e-6);
}

TEST(PidPolicy, AntiWindupKeepsCommandInRange)
{
    auto s = setup();
    s.max_speedup = 2.0;
    PidPolicy policy;
    policy.begin(s);
    // Persistent large error: the command must saturate, not wind up.
    for (int t = 0; t < 50; ++t) {
        const double cmd = policy.update(0.5);
        EXPECT_GE(cmd, s.min_speedup);
        EXPECT_LE(cmd, s.max_speedup);
    }
    // After the disturbance clears, recovery must be prompt (no
    // accumulated windup to burn off): within a few periods the
    // command leaves the rail.
    double cmd = 0.0;
    for (int t = 0; t < 5; ++t)
        cmd = policy.update(25.0); // Far above target.
    EXPECT_LT(cmd, 2.0);
}

TEST(PidPolicy, DerivativeDampsStep)
{
    // A derivative term must not destabilise the loop on a target
    // step; the loop still converges. (Gains checked stable by the
    // Jury criterion: poles {0.5, 0.29, -0.69} at r = 1.)
    PidGains gains;
    gains.kp = 0.2;
    gains.ki = 0.6;
    gains.kd = 0.1;
    PidPolicy policy(gains);
    policy.begin(setup(20.0));
    const auto rates = simulateLoop(policy, 10.0, 120, 10.0);
    EXPECT_NEAR(rates.back(), 20.0, 1e-6);
}

TEST(PidPolicy, Validation)
{
    PidGains bad;
    bad.ki = 0.0;
    EXPECT_THROW(PidPolicy{bad}, std::invalid_argument);
    bad = PidGains{};
    bad.kp = -0.1;
    EXPECT_THROW(PidPolicy{bad}, std::invalid_argument);
    PidPolicy fresh;
    EXPECT_THROW(fresh.update(1.0), std::logic_error);
    auto s = setup();
    s.baseline_rate = 0.0;
    PidPolicy policy;
    EXPECT_THROW(policy.begin(s), std::invalid_argument);
    EXPECT_EQ(PidPolicy().name(), "pid");
}

/** Property: the PID loop converges for a range of plant gains. */
class PidStability : public ::testing::TestWithParam<double>
{
};

TEST_P(PidStability, ConvergesAcrossPlantGains)
{
    const double b_eff = 10.0 * GetParam();
    // The actuation floor (min_speedup = 1) makes any target below
    // b_eff unreachable, so for fast plants aim 20% above the floor
    // output instead; the loop dynamics (and the Jury analysis) are
    // identical for any reachable setpoint.
    const double target = std::max(10.0, 1.2 * b_eff);
    PidPolicy policy;
    policy.begin(setup(target));
    const auto rates = simulateLoop(policy, b_eff, 200, b_eff);
    EXPECT_NEAR(rates.back(), target, 1e-3)
        << "plant scale " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PlantScales, PidStability,
                         ::testing::Values(0.4, 2.0 / 3.0, 1.0, 1.5));

// ---------------------------------------------------------------------------
// GainScheduledPolicy
// ---------------------------------------------------------------------------

TEST(GainScheduledPolicy, ConvergesDeadbeatWithExactModel)
{
    GainScheduledPolicy policy;
    policy.begin(setup(15.0));
    const auto rates = simulateLoop(policy, 10.0, 10, 10.0);
    EXPECT_NEAR(rates.back(), 15.0, 1e-6);
}

TEST(GainScheduledPolicy, EstimatesPlantGainUnderDisturbance)
{
    // Under the 2.4 -> 1.6 GHz cap the true plant gain is (2/3) b;
    // the online estimate must converge to it and the loop must hold
    // the target.
    GainScheduledPolicy policy;
    policy.begin(setup());
    const double b_eff = 10.0 * (1.6 / 2.4);
    const auto rates = simulateLoop(policy, b_eff, 80, b_eff);
    EXPECT_NEAR(rates.back(), 10.0, 1e-6);
    EXPECT_NEAR(policy.estimatedBaseline(), b_eff, 0.05 * b_eff);
}

TEST(GainScheduledPolicy, AdaptsFasterThanMismatchedDeadbeat)
{
    // With the plant at (2/3) b the fixed deadbeat law has pole 1/3
    // (geometric error decay); the adaptive law re-estimates b and
    // should be closer to target after the same number of periods.
    const double b_eff = 10.0 * (1.6 / 2.4);

    GainScheduledPolicy adaptive;
    adaptive.begin(setup());
    const auto adaptive_rates = simulateLoop(adaptive, b_eff, 8, b_eff);

    DeadbeatPolicy fixed;
    fixed.begin(setup());
    const auto fixed_rates = simulateLoop(fixed, b_eff, 8, b_eff);

    EXPECT_LT(std::abs(adaptive_rates.back() - 10.0),
              std::abs(fixed_rates.back() - 10.0));
}

TEST(GainScheduledPolicy, EstimateClampedAgainstDegenerateSamples)
{
    GainScheduleConfig config;
    config.min_scale = 0.5;
    config.max_scale = 2.0;
    GainScheduledPolicy policy(config);
    policy.begin(setup());
    // Feed absurd rates; the estimate must stay inside the clamp.
    for (int t = 0; t < 20; ++t)
        policy.update(t % 2 == 0 ? 1e6 : 1e-6);
    EXPECT_GE(policy.estimatedBaseline(), 0.5 * 10.0);
    EXPECT_LE(policy.estimatedBaseline(), 2.0 * 10.0);
}

TEST(GainScheduledPolicy, Validation)
{
    GainScheduleConfig bad;
    bad.estimate_alpha = 0.0;
    EXPECT_THROW(GainScheduledPolicy{bad}, std::invalid_argument);
    bad = GainScheduleConfig{};
    bad.gain = 0.0;
    EXPECT_THROW(GainScheduledPolicy{bad}, std::invalid_argument);
    bad = GainScheduleConfig{};
    bad.min_scale = 2.0;
    bad.max_scale = 1.0;
    EXPECT_THROW(GainScheduledPolicy{bad}, std::invalid_argument);
    GainScheduledPolicy fresh;
    EXPECT_THROW(fresh.update(1.0), std::logic_error);
    EXPECT_EQ(GainScheduledPolicy().name(), "gain-scheduled");
}

// ---------------------------------------------------------------------------
// Non-finite setups and tunings, for all three laws
// ---------------------------------------------------------------------------

TEST(ControlPolicies, RejectNonFiniteSetupsAndTunings)
{
    // Every row was accepted before the checks were written to fail on
    // NaN (an ordered comparison with NaN is false, so `x <= 0` let it
    // through), and each accepted row then returned NaN or infinity
    // from every update().
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<ControlSetup> bad_setups = {
        {nan, 10.0, 1.0, 100.0}, {10.0, nan, 1.0, 100.0},
        {10.0, 10.0, nan, 100.0}, {10.0, 10.0, 1.0, nan},
        {inf, 10.0, 1.0, 100.0}, {10.0, inf, 1.0, 100.0},
    };
    const std::vector<std::pair<const char *, PolicyFactory>> laws = {
        {"deadbeat", makeDeadbeatPolicy()},
        {"pid", makePidPolicy()},
        {"gain-scheduled", makeGainScheduledPolicy()},
    };
    for (const auto &[law, factory] : laws) {
        for (std::size_t row = 0; row < bad_setups.size(); ++row) {
            SCOPED_TRACE(::testing::Message()
                         << law << " setup row " << row);
            EXPECT_THROW(factory()->begin(bad_setups[row]),
                         std::invalid_argument);
        }
    }

    for (const double gain : {nan, inf})
        EXPECT_THROW(DeadbeatPolicy{gain}, std::invalid_argument);
    for (const double bad : {nan, inf}) {
        for (int field = 0; field < 3; ++field) {
            SCOPED_TRACE(::testing::Message()
                         << "pid gain " << field << " = " << bad);
            PidGains gains;
            (field == 0 ? gains.kp : field == 1 ? gains.ki : gains.kd) =
                bad;
            EXPECT_THROW(PidPolicy{gains}, std::invalid_argument);
        }
    }
    for (int field = 0; field < 4; ++field) {
        SCOPED_TRACE(::testing::Message() << "gain schedule field "
                                          << field << " = NaN");
        GainScheduleConfig config;
        (field == 0   ? config.estimate_alpha
         : field == 1 ? config.gain
         : field == 2 ? config.min_scale
                      : config.max_scale) = nan;
        EXPECT_THROW(GainScheduledPolicy{config}, std::invalid_argument);
    }
    GainScheduleConfig infinite_gain;
    infinite_gain.gain = inf;
    EXPECT_THROW(GainScheduledPolicy{infinite_gain},
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

TEST(PolicyFactories, MintFreshInstances)
{
    const auto factory = makeDeadbeatPolicy(0.5);
    auto a = factory();
    auto b = factory();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), "integral");
    EXPECT_EQ(makePidPolicy()()->name(), "pid");
    EXPECT_EQ(makeGainScheduledPolicy()()->name(), "gain-scheduled");
}

} // namespace
} // namespace powerdial::core

/** @file Unit and property tests for sim::PowerModel. */
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/power_model.h"

namespace powerdial::sim {
namespace {

TEST(PowerModel, IdleFloorIndependentOfFrequency)
{
    PowerModel pm;
    for (const double f : {1.6e9, 2.0e9, 2.4e9})
        EXPECT_DOUBLE_EQ(pm.watts(f, 0.0), pm.idleWatts());
}

TEST(PowerModel, PeakAtMaxFrequencyFullLoad)
{
    PowerModel pm;
    EXPECT_NEAR(pm.watts(2.4e9, 1.0), pm.peakWatts(), 1e-9);
}

TEST(PowerModel, DefaultsMatchPaperPlatform)
{
    // Paper section 5.1: idle ~90 W, full load 220 W.
    PowerModel pm;
    EXPECT_DOUBLE_EQ(pm.idleWatts(), 90.0);
    EXPECT_DOUBLE_EQ(pm.peakWatts(), 220.0);
}

TEST(PowerModel, UtilizationIsClamped)
{
    PowerModel pm;
    EXPECT_DOUBLE_EQ(pm.watts(2.4e9, -0.5), pm.idleWatts());
    EXPECT_NEAR(pm.watts(2.4e9, 2.0), pm.peakWatts(), 1e-9);
}

TEST(PowerModel, VoltageRampIsClampedAtEnds)
{
    PowerModel pm;
    EXPECT_DOUBLE_EQ(pm.voltage(1.0e9), pm.params().v_min);
    EXPECT_DOUBLE_EQ(pm.voltage(3.0e9), pm.params().v_max);
}

TEST(PowerModel, VoltageIsLinearInsideRamp)
{
    PowerModel pm;
    const double mid = 0.5 * (1.6e9 + 2.4e9);
    EXPECT_NEAR(pm.voltage(mid),
                0.5 * (pm.params().v_min + pm.params().v_max), 1e-12);
}

TEST(PowerModel, RejectsBadParameters)
{
    PowerModelParams bad;
    bad.peak_watts = bad.idle_watts; // peak must exceed idle
    EXPECT_THROW(PowerModel{bad}, std::invalid_argument);

    PowerModelParams bad2;
    bad2.f_min_hz = 2.4e9;
    bad2.f_max_hz = 1.6e9;
    EXPECT_THROW(PowerModel{bad2}, std::invalid_argument);

    PowerModelParams bad3;
    bad3.v_min = 0.0;
    EXPECT_THROW(PowerModel{bad3}, std::invalid_argument);
}

TEST(PowerModel, RejectsNonFiniteParameters)
{
    // Every row is accepted by a check written as `x <= 0` or
    // `peak <= idle`, which NaN and infinity slip past.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    using Edit = std::function<void(PowerModelParams &)>;
    const std::vector<std::pair<std::string, Edit>> rows = {
        {"idle NaN", [nan](PowerModelParams &p) { p.idle_watts = nan; }},
        {"peak NaN", [nan](PowerModelParams &p) { p.peak_watts = nan; }},
        {"peak inf", [inf](PowerModelParams &p) { p.peak_watts = inf; }},
        {"v_min NaN", [nan](PowerModelParams &p) { p.v_min = nan; }},
        {"v_max NaN", [nan](PowerModelParams &p) { p.v_max = nan; }},
        {"v_max inf", [inf](PowerModelParams &p) { p.v_max = inf; }},
        {"f_min NaN", [nan](PowerModelParams &p) { p.f_min_hz = nan; }},
        {"f_max NaN", [nan](PowerModelParams &p) { p.f_max_hz = nan; }},
        {"f_max inf", [inf](PowerModelParams &p) { p.f_max_hz = inf; }},
    };
    for (const auto &[name, edit] : rows) {
        SCOPED_TRACE(name);
        PowerModelParams params;
        edit(params);
        EXPECT_THROW(PowerModel{params}, std::invalid_argument);
    }
}

/** Property: power is monotone in utilisation at every frequency. */
class PowerMonotoneUtil : public ::testing::TestWithParam<double>
{
};

TEST_P(PowerMonotoneUtil, MonotoneInUtilization)
{
    PowerModel pm;
    const double f = GetParam();
    double prev = -1.0;
    for (double u = 0.0; u <= 1.0; u += 0.05) {
        const double w = pm.watts(f, u);
        EXPECT_GE(w, prev);
        prev = w;
    }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, PowerMonotoneUtil,
                         ::testing::Values(1.6e9, 1.73e9, 1.86e9, 2.0e9,
                                           2.13e9, 2.26e9, 2.4e9));

/** Property: power is monotone in frequency at every utilisation. */
class PowerMonotoneFreq : public ::testing::TestWithParam<double>
{
};

TEST_P(PowerMonotoneFreq, MonotoneInFrequency)
{
    PowerModel pm;
    const double u = GetParam();
    double prev = -1.0;
    for (double f = 1.6e9; f <= 2.4e9; f += 0.05e9) {
        const double w = pm.watts(f, u);
        EXPECT_GE(w, prev - 1e-12);
        prev = w;
    }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, PowerMonotoneFreq,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75,
                                           1.0));

TEST(PowerModel, DvfsSavesPowerAtFullLoad)
{
    // The premise of the power-cap experiments: dropping 2.4 -> 1.6 GHz
    // at full load must reduce full-system power noticeably (paper
    // Figure 6 shows 16-21% reductions).
    PowerModel pm;
    const double hi = pm.watts(2.4e9, 1.0);
    const double lo = pm.watts(1.6e9, 1.0);
    const double reduction = (hi - lo) / hi;
    EXPECT_GT(reduction, 0.10);
    EXPECT_LT(reduction, 0.40);
}

} // namespace
} // namespace powerdial::sim

/** @file Unit tests for sim::FrequencyScale. */
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/frequency.h"

namespace powerdial::sim {
namespace {

TEST(FrequencyScale, XeonHasSevenStates)
{
    const auto scale = FrequencyScale::xeonE5530();
    EXPECT_EQ(scale.states(), 7u);
    EXPECT_DOUBLE_EQ(scale.maxHz(), 2.4e9);
    EXPECT_DOUBLE_EQ(scale.minHz(), 1.6e9);
    EXPECT_EQ(scale.lowestState(), 6u);
}

TEST(FrequencyScale, StatesAreStrictlyDecreasing)
{
    const auto scale = FrequencyScale::xeonE5530();
    for (std::size_t i = 0; i + 1 < scale.states(); ++i)
        EXPECT_GT(scale.frequencyHz(i), scale.frequencyHz(i + 1));
}

TEST(FrequencyScale, MatchesPaperFigure6Axis)
{
    // 2.4, 2.26, 2.13, 2, 1.86, 1.73, 1.6 GHz.
    const auto scale = FrequencyScale::xeonE5530();
    EXPECT_NEAR(scale.frequencyHz(1), 2.26e9, 1e6);
    EXPECT_NEAR(scale.frequencyHz(2), 2.13e9, 1e6);
    EXPECT_NEAR(scale.frequencyHz(3), 2.00e9, 1e6);
    EXPECT_NEAR(scale.frequencyHz(4), 1.86e9, 1e6);
    EXPECT_NEAR(scale.frequencyHz(5), 1.73e9, 1e6);
}

TEST(FrequencyScale, RejectsEmptyList)
{
    EXPECT_THROW(FrequencyScale({}), std::invalid_argument);
}

TEST(FrequencyScale, RejectsNonDecreasingList)
{
    EXPECT_THROW(FrequencyScale({1e9, 2e9}), std::invalid_argument);
    EXPECT_THROW(FrequencyScale({2e9, 2e9}), std::invalid_argument);
}

TEST(FrequencyScale, RejectsNonPositiveFrequency)
{
    EXPECT_THROW(FrequencyScale({1e9, 0.0}), std::invalid_argument);
}

TEST(FrequencyScale, RejectsNonFiniteFrequencies)
{
    // Every row passes a `f[i] <= f[i + 1]` / `back() <= 0` check,
    // which NaN and infinity slip past.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::vector<double>> rows = {
        {nan},
        {inf},
        {nan, 1.0e9},
        {2.0e9, nan},
        {2.0e9, nan, 1.0e9},
        {inf, 1.0e9},
    };
    for (const auto &freqs : rows) {
        SCOPED_TRACE(::testing::PrintToString(freqs));
        EXPECT_THROW(FrequencyScale{freqs}, std::invalid_argument);
    }
}

TEST(FrequencyScale, FrequencyHzBoundsChecked)
{
    const auto scale = FrequencyScale::xeonE5530();
    EXPECT_THROW(scale.frequencyHz(7), std::out_of_range);
}

TEST(FrequencyScale, ClosestStateExactMatches)
{
    const auto scale = FrequencyScale::xeonE5530();
    for (std::size_t i = 0; i < scale.states(); ++i)
        EXPECT_EQ(scale.closestState(scale.frequencyHz(i)), i);
}

TEST(FrequencyScale, ClosestStateRoundsToNearest)
{
    const auto scale = FrequencyScale::xeonE5530();
    EXPECT_EQ(scale.closestState(2.39e9), 0u);
    EXPECT_EQ(scale.closestState(1.0e9), scale.lowestState());
    EXPECT_EQ(scale.closestState(3.0e9), 0u);
}

/** Property sweep: closestState returns the true argmin over states. */
class ClosestStateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ClosestStateSweep, IsArgmin)
{
    const auto scale = FrequencyScale::xeonE5530();
    const double hz = GetParam();
    const std::size_t got = scale.closestState(hz);
    for (std::size_t i = 0; i < scale.states(); ++i) {
        EXPECT_LE(std::abs(scale.frequencyHz(got) - hz),
                  std::abs(scale.frequencyHz(i) - hz) + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ClosestStateSweep,
                         ::testing::Values(1.0e9, 1.65e9, 1.795e9, 1.93e9,
                                           2.065e9, 2.195e9, 2.33e9,
                                           2.5e9));

} // namespace
} // namespace powerdial::sim

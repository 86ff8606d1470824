/** @file Tests for the extension features: strategy advisor, CSV trace
 *  export (batch + streaming), and heartbeat window statistics. */
#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "core/policy_advisor.h"
#include "core/trace_export.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "core/session.h"
#include "heartbeats/heartbeat.h"
#include "toy_app.h"

namespace powerdial {
namespace {

TEST(PolicyAdvisor, ServerClassIdlePowerPrefersMinimalSpeedup)
{
    // Paper section 3: "high idle power consumption ... common in
    // current server class machines" favours the low-power-state
    // strategy.
    sim::PowerModel server; // Idle 90 W of 220 W peak (~41%).
    const auto advice = core::advisePolicy(
        server, sim::FrequencyScale::xeonE5530(), 2.0);
    EXPECT_FALSE(advice.race_to_idle_wins);
    EXPECT_EQ(advice.strategy_name, "minimal-speedup");
    EXPECT_GT(advice.race_energy_j, advice.stretch_energy_j);
    // The factory must mint the winning strategy.
    EXPECT_EQ(advice.makeStrategy()()->name(), "minimal-speedup");
}

TEST(PolicyAdvisor, CheapSleepAndFlatVoltagePreferRaceToIdle)
{
    // Race-to-idle wins where DVFS has no voltage headroom (frequency
    // scaling saves no energy per cycle) and the platform can park in
    // a cheap sleep state — the paper's "sufficiently low idle power".
    sim::PowerModelParams params;
    params.v_min = params.v_max = 1.0; // No voltage scaling.
    sim::PowerModel flat(params);
    const auto advice = core::advisePolicy(
        flat, sim::FrequencyScale::xeonE5530(), 2.0,
        /*sleep_watts=*/5.0);
    EXPECT_TRUE(advice.race_to_idle_wins);
    EXPECT_EQ(advice.strategy_name, "race-to-idle");
    EXPECT_LT(advice.race_energy_j, advice.stretch_energy_j);
    // The break-even sits between the sleep power and idle power.
    EXPECT_GT(advice.breakeven_sleep_watts, 5.0);
    EXPECT_EQ(advice.makeStrategy()()->name(), "race-to-idle");
}

TEST(PolicyAdvisor, ServerIdlePowerAboveBreakevenPrefersStretch)
{
    // The paper's server platform: idle ~90 W with no deeper sleep.
    // Its break-even sleep power sits far below that, so the
    // low-power-state (minimal-speedup) solution wins — section 3's
    // "high idle power consumption ... common in current server class
    // machines" case.
    sim::PowerModel pm;
    const auto scale = sim::FrequencyScale::xeonE5530();
    const auto at_idle = core::advisePolicy(pm, scale, 2.0);
    EXPECT_FALSE(at_idle.race_to_idle_wins);
    EXPECT_GT(at_idle.breakeven_sleep_watts, 0.0);
    EXPECT_LT(at_idle.breakeven_sleep_watts, pm.idleWatts());

    // An energy-proportional platform (deep sleep below break-even)
    // flips the decision — section 3's race-to-idle case.
    const auto deep_sleep = core::advisePolicy(
        pm, scale, 2.0,
        /*sleep_watts=*/0.5 * at_idle.breakeven_sleep_watts);
    EXPECT_TRUE(deep_sleep.race_to_idle_wins);
}

TEST(PolicyAdvisor, Validation)
{
    sim::PowerModel pm;
    EXPECT_THROW(core::advisePolicy(
                     pm, sim::FrequencyScale::xeonE5530(), 0.5),
                 std::invalid_argument);
}

/** The recorded beats of a sample controlled run. */
std::vector<core::BeatTrace>
sampleBeats()
{
    tests::ToyApp app;
    auto ident = core::identifyKnobs(app);
    const auto cal = core::calibrate(app, app.trainingInputs());
    core::Session session(app, ident.table, cal.model);
    auto &recorder = session.attach<core::BeatTraceRecorder>();
    sim::Machine machine;
    session.run(0, machine);
    return recorder.beats();
}

TEST(TraceExport, BeatsCsvHasHeaderAndRows)
{
    const auto beats = sampleBeats();
    std::ostringstream os;
    core::writeBeatsCsv(os, beats);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("beat,time_s,window_rate"), std::string::npos);
    // Header + one line per beat.
    const auto lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(),
                                            '\n'));
    EXPECT_EQ(lines, beats.size() + 1);
}

TEST(TraceExport, DecimationKeepsEveryNth)
{
    const auto beats = sampleBeats();
    std::ostringstream os;
    core::writeBeatsCsv(os, beats, 10);
    const std::string csv = os.str();
    const auto lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(),
                                            '\n'));
    EXPECT_EQ(lines, (beats.size() + 9) / 10 + 1);
    EXPECT_THROW(core::writeBeatsCsv(os, beats, 0),
                 std::invalid_argument);
}

TEST(WindowStats, SummarisesLatencies)
{
    hb::Monitor monitor(4);
    double t = 0.0;
    monitor.beat(t);
    for (const double lat : {1.0, 2.0, 3.0, 2.0}) {
        t += lat;
        monitor.beat(t);
    }
    const auto stats = monitor.windowStats();
    EXPECT_DOUBLE_EQ(stats.min_latency, 1.0);
    EXPECT_DOUBLE_EQ(stats.max_latency, 3.0);
    EXPECT_DOUBLE_EQ(stats.mean_latency, 2.0);
    EXPECT_NEAR(stats.stddev_latency, std::sqrt(0.5), 1e-12);
}

TEST(WindowStats, EmptyWindowIsZeros)
{
    hb::Monitor monitor(4);
    const auto stats = monitor.windowStats();
    EXPECT_DOUBLE_EQ(stats.mean_latency, 0.0);
    EXPECT_DOUBLE_EQ(stats.stddev_latency, 0.0);
}

} // namespace
} // namespace powerdial

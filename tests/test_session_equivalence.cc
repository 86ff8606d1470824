/**
 * @file
 * Bit-identity regression suite for the Session redesign.
 *
 * Proves that the composable Session — deadbeat ControlPolicy plus the
 * ported MinimalSpeedup/RaceToIdle strategies and the BeatTraceRecorder
 * observer — reproduces the pre-redesign monolithic Runtime::run
 * (kept verbatim in legacy_runtime.h) *bit-identically*: every field
 * of every beat, and the run summary, compared with exact floating-
 * point equality on all four benchmark applications and the toy app,
 * with and without a power cap, for both ported strategies and with
 * knobs disabled.
 */
#include <gtest/gtest.h>

#include "apps/bodytrack/bodytrack_app.h"
#include "apps/searchx/searchx_app.h"
#include "apps/swaptions/swaptions_app.h"
#include "apps/videnc/videnc_app.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "core/session.h"
#include "legacy_runtime.h"
#include "toy_app.h"

namespace powerdial {
namespace {

namespace legacy = tests::legacy;

struct Scenario
{
    legacy::ActuationPolicy policy =
        legacy::ActuationPolicy::MinimalSpeedup;
    bool knobs_enabled = true;
    bool capped = true;
    double gain = 1.0;
};

core::StrategyFactory
strategyFor(legacy::ActuationPolicy policy)
{
    return policy == legacy::ActuationPolicy::RaceToIdle
        ? core::makeRaceToIdleStrategy()
        : core::makeMinimalSpeedupStrategy();
}

/**
 * Run the same scenario through the legacy monolith and the Session
 * and require bit-identical traces. The target is the production
 * input's own observed baseline rate (the section 5.4 protocol).
 */
void
expectBitIdentical(core::App &app, const Scenario &scenario)
{
    auto ident = core::identifyKnobs(app);
    ASSERT_TRUE(ident.analysis.accepted) << ident.report;
    const auto cal = core::calibrate(app, app.trainingInputs());

    const auto input = app.productionInputs().front();
    const auto baseline =
        core::runFixed(app, input, app.defaultCombination());
    app.loadInput(input);
    const double target =
        static_cast<double>(app.unitCount()) / baseline.seconds;

    // Legacy monolith.
    legacy::RuntimeOptions old_options;
    old_options.policy = scenario.policy;
    old_options.knobs_enabled = scenario.knobs_enabled;
    old_options.target_rate = target;
    old_options.gain = scenario.gain;
    sim::Machine old_machine;
    legacy::ControlledRun old_run;
    if (scenario.capped) {
        auto governor = sim::DvfsGovernor::powerCap(
            old_machine, 0.25 * baseline.seconds,
            0.75 * baseline.seconds);
        old_run = legacy::run(app, ident.table, cal.model, old_options,
                              input, old_machine, &governor);
    } else {
        old_run = legacy::run(app, ident.table, cal.model, old_options,
                              input, old_machine);
    }

    // Redesigned Session.
    core::SessionOptions options =
        core::SessionOptions()
            .withTargetRate(target)
            .withKnobsEnabled(scenario.knobs_enabled)
            .withPolicy(core::makeDeadbeatPolicy(scenario.gain))
            .withStrategy(strategyFor(scenario.policy));
    sim::Machine new_machine;
    if (scenario.capped)
        options.withGovernor(sim::DvfsGovernor::powerCap(
            new_machine, 0.25 * baseline.seconds,
            0.75 * baseline.seconds));
    core::Session session(app, ident.table, cal.model, options);
    core::BeatTraceRecorder recorder;
    session.observe(recorder);
    const core::ControlledRun new_run = session.run(input, new_machine);
    const auto &new_beats = recorder.beats();

    // Bit-identical: exact double equality on every field.
    ASSERT_EQ(new_beats.size(), old_run.beats.size());
    ASSERT_EQ(new_run.beat_count, old_run.beats.size());
    for (std::size_t i = 0; i < new_beats.size(); ++i) {
        const auto &a = old_run.beats[i];
        const auto &b = new_beats[i];
        ASSERT_EQ(a.time_s, b.time_s) << "beat " << i;
        ASSERT_EQ(a.window_rate, b.window_rate) << "beat " << i;
        ASSERT_EQ(a.normalized_perf, b.normalized_perf) << "beat " << i;
        ASSERT_EQ(a.commanded_speedup, b.commanded_speedup)
            << "beat " << i;
        ASSERT_EQ(a.knob_gain, b.knob_gain) << "beat " << i;
        ASSERT_EQ(a.combination, b.combination) << "beat " << i;
        ASSERT_EQ(a.pstate, b.pstate) << "beat " << i;
    }
    EXPECT_EQ(old_run.seconds, new_run.seconds);
    EXPECT_EQ(old_run.mean_qos_loss_estimate,
              new_run.mean_qos_loss_estimate);
    const qos::OutputAbstraction new_output = app.output();
    ASSERT_EQ(old_run.output.components.size(),
              new_output.components.size());
    for (std::size_t i = 0; i < old_run.output.components.size(); ++i)
        EXPECT_EQ(old_run.output.components[i],
                  new_output.components[i]);
    // Both machines must have evolved identically too.
    EXPECT_EQ(old_machine.now(), new_machine.now());
    EXPECT_EQ(old_machine.energyJoules(), new_machine.energyJoules());
}

TEST(SessionEquivalence, ToyAllScenarios)
{
    // The toy app is cheap: sweep strategies, knobs-off, non-deadbeat
    // gain, and the uncapped path.
    for (const Scenario &scenario :
         {Scenario{},
          Scenario{legacy::ActuationPolicy::RaceToIdle, true, true, 1.0},
          Scenario{legacy::ActuationPolicy::MinimalSpeedup, false, true,
                   1.0},
          Scenario{legacy::ActuationPolicy::MinimalSpeedup, true, false,
                   1.0},
          Scenario{legacy::ActuationPolicy::MinimalSpeedup, true, true,
                   0.5}}) {
        tests::ToyApp::Config config;
        config.units = 400;
        tests::ToyApp app(config);
        expectBitIdentical(app, scenario);
    }
}

TEST(SessionEquivalence, SwaptionsPowerCap)
{
    apps::swaptions::SwaptionsConfig config;
    config.sim_values =
        apps::swaptions::SwaptionsConfig::makeRange(250, 4000, 250);
    config.inputs = 4;
    config.swaptions_per_input = 400;
    apps::swaptions::SwaptionsApp app(config);
    expectBitIdentical(app, Scenario{});
}

TEST(SessionEquivalence, SwaptionsRaceToIdle)
{
    apps::swaptions::SwaptionsConfig config;
    config.sim_values =
        apps::swaptions::SwaptionsConfig::makeRange(500, 4000, 500);
    config.inputs = 2;
    config.swaptions_per_input = 300;
    apps::swaptions::SwaptionsApp app(config);
    expectBitIdentical(
        app,
        Scenario{legacy::ActuationPolicy::RaceToIdle, true, true, 1.0});
}

TEST(SessionEquivalence, SearchxPowerCap)
{
    apps::searchx::SearchxConfig config;
    config.corpus.documents = 400;
    config.corpus.words_per_doc = 150;
    config.inputs = 4;
    config.queries_per_input = 500;
    apps::searchx::SearchxApp app(config);
    expectBitIdentical(app, Scenario{});
}

TEST(SessionEquivalence, VidencPowerCap)
{
    apps::videnc::VidencConfig config;
    config.subme_values = {1, 3, 5, 7};
    config.merange_values = {1, 4, 16};
    config.ref_values = {1, 3};
    config.inputs = 2;
    config.video.width = 48;
    config.video.height = 32;
    config.video.frames = 300;
    apps::videnc::VidencApp app(config);
    expectBitIdentical(app, Scenario{});
}

TEST(SessionEquivalence, BodytrackPowerCap)
{
    apps::bodytrack::BodytrackConfig config;
    config.particle_values = {100, 200, 400};
    config.layer_values = {1, 2, 3};
    config.inputs = 2;
    config.frames = 300;
    apps::bodytrack::BodytrackApp app(config);
    expectBitIdentical(app, Scenario{});
}

} // namespace
} // namespace powerdial

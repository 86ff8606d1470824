/** @file Tests for the PowerDial Session control runtime. */
#include <gtest/gtest.h>

#include <limits>

#include "core/calibration.h"
#include "core/fanout.h"
#include "core/identify.h"
#include "core/session.h"
#include "toy_app.h"

namespace powerdial::core {
namespace {

using tests::ToyApp;

struct Pipeline
{
    ToyApp app;
    KnobTable table;
    ResponseModel model;
};

Pipeline
makePipeline(const ToyApp::Config &config = {})
{
    Pipeline p{ToyApp(config), {}, {}};
    auto ident = identifyKnobs(p.app);
    EXPECT_TRUE(ident.analysis.accepted);
    p.table = std::move(ident.table);
    p.model = calibrate(p.app, p.app.trainingInputs()).model;
    return p;
}

/** Run with a trace recorder attached, returning run + beats. */
struct TracedRun
{
    ControlledRun run;
    std::vector<BeatTrace> beats;
};

TracedRun
runTraced(Session &session, std::size_t input, sim::Machine &machine)
{
    // Owned (attach) rather than borrowed: the recorder must outlive
    // the session in case the caller runs it again later.
    auto &recorder = session.attach<BeatTraceRecorder>();
    TracedRun out;
    out.run = session.run(input, machine);
    out.beats = recorder.beats();
    return out;
}

TEST(Session, HoldsTargetOnUnloadedMachine)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model);
    sim::Machine machine;
    const auto traced = runTraced(session, 2, machine);
    // No disturbance: the app should stay at the baseline setting and
    // the observed rate should sit at the target.
    const auto &last = traced.beats.back();
    EXPECT_NEAR(last.normalized_perf, 1.0, 0.05);
    EXPECT_NEAR(traced.run.mean_qos_loss_estimate, 0.0, 0.005);
}

TEST(Session, RecoversPerformanceUnderPowerCap)
{
    ToyApp::Config config;
    config.units = 600;
    auto p = makePipeline(config);
    sim::Machine machine;
    // Cap at one quarter of the expected run, lift at three quarters
    // (the paper's section 5.4 scenario). The calibrated baseline time
    // already reflects the 600-unit inputs. The governor is an owned
    // component of the options now.
    const double expected = p.model.baselineSeconds();
    Session session(p.app, p.table, p.model,
                    SessionOptions().withGovernor(
                        sim::DvfsGovernor::powerCap(
                            machine, 0.25 * expected, 0.75 * expected)));
    const auto traced = runTraced(session, 2, machine);
    const auto &beats = traced.beats;

    // While capped (middle of the run), performance must return to
    // within 10% of target after the controller reacts.
    const std::size_t mid = beats.size() / 2;
    EXPECT_NEAR(beats[mid].normalized_perf, 1.0, 0.1);
    // The knob gain must exceed 1 while the cap is in force.
    EXPECT_GT(beats[mid].knob_gain, 1.0);
    // And the machine must really have been capped at that point.
    EXPECT_EQ(beats[mid].pstate, machine.scale().lowestState());
    // After the cap lifts, the app must return to the baseline knobs.
    EXPECT_EQ(beats.back().combination, p.model.baselineCombination());
}

TEST(Session, GovernorResetsBetweenRuns)
{
    // The owned governor replays its schedule on every run: both runs
    // must see the capped region, not just the first.
    ToyApp::Config config;
    config.units = 400;
    auto p = makePipeline(config);
    const double expected = p.model.baselineSeconds();

    sim::Machine probe;
    Session session(p.app, p.table, p.model,
                    SessionOptions().withGovernor(
                        sim::DvfsGovernor::powerCap(
                            probe, 0.25 * expected, 0.75 * expected)));

    BeatTraceRecorder recorder; // Resets itself at each run start.
    session.observe(recorder);
    auto cappedBeats = [&session, &recorder](sim::Machine &machine) {
        session.run(2, machine);
        std::size_t capped = 0;
        for (const auto &b : recorder.beats())
            capped += b.pstate != 0 ? 1u : 0u;
        return capped;
    };

    sim::Machine m1, m2;
    const std::size_t first = cappedBeats(m1);
    const std::size_t second = cappedBeats(m2);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(first, second);

    // The schedule is re-anchored at each run's start time, so even a
    // machine that carries virtual time over from the previous run
    // sees the same capped region (not an instantly-expired schedule).
    const std::size_t reused = cappedBeats(m1);
    EXPECT_EQ(reused, first);
}

TEST(Session, WithoutKnobsPerformanceDegradesUnderCap)
{
    ToyApp::Config config;
    config.units = 400;
    auto p = makePipeline(config);
    sim::Machine machine;
    Session session(p.app, p.table, p.model,
                    SessionOptions()
                        .withKnobsEnabled(false)
                        .withGovernor(sim::DvfsGovernor::powerCap(
                            machine, 0.05, 1e9)));
    const auto traced = runTraced(session, 2, machine);
    // The ~x markers of Figure 7: performance settles at f_low/f_high.
    const auto &last = traced.beats.back();
    EXPECT_NEAR(last.normalized_perf, 1.6 / 2.4, 0.05);
}

TEST(Session, RaceToIdleInsertsIdleTime)
{
    ToyApp::Config config;
    config.units = 400;
    auto p = makePipeline(config);
    sim::Machine machine;
    Session session(p.app, p.table, p.model,
                    SessionOptions()
                        .withStrategy(makeRaceToIdleStrategy())
                        .withGovernor(sim::DvfsGovernor::powerCap(
                            machine, 0.05, 1e9)));
    const auto traced = runTraced(session, 2, machine);
    // Performance still near target under the cap...
    EXPECT_NEAR(traced.beats.back().normalized_perf, 1.0, 0.1);
    // ...but the trace must contain idle (low-power) segments.
    bool saw_idle = false;
    for (const auto &seg : machine.powerTrace())
        saw_idle |= seg.watts == machine.powerModel().idleWatts();
    EXPECT_TRUE(saw_idle);
}

TEST(Session, HigherTargetForcesQosSacrifice)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model,
                    SessionOptions().withTargetRate(
                        p.model.baselineRate() * 3.0));
    sim::Machine machine;
    const auto traced = runTraced(session, 2, machine);
    EXPECT_GT(traced.run.mean_qos_loss_estimate, 0.0);
    EXPECT_NEAR(traced.beats.back().normalized_perf, 1.0, 0.15);
}

TEST(Session, BeatTraceIsComplete)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model);
    sim::Machine machine;
    const auto traced = runTraced(session, 0, machine);
    EXPECT_EQ(traced.beats.size(), 200u);
    EXPECT_EQ(traced.run.beat_count, 200u);
    EXPECT_GT(traced.run.seconds, 0.0);
    ASSERT_EQ(traced.run.output.components.size(), 1u);
    // Timestamps must be monotone.
    for (std::size_t i = 1; i < traced.beats.size(); ++i)
        EXPECT_GE(traced.beats[i].time_s, traced.beats[i - 1].time_s);
}

TEST(Session, RunWithoutObserversStillReportsCounts)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model);
    sim::Machine machine;
    const auto run = session.run(0, machine);
    EXPECT_EQ(run.beat_count, 200u);
    EXPECT_GT(run.seconds, 0.0);
}

TEST(Session, OptionValidation)
{
    auto p = makePipeline();
    EXPECT_THROW(Session(p.app, p.table, p.model,
                         SessionOptions().withQuantum(0)),
                 std::invalid_argument);
    EXPECT_THROW(Session(p.app, p.table, p.model,
                         SessionOptions().withWindow(0)),
                 std::invalid_argument);
    EXPECT_THROW(
        Session(p.app, p.table, p.model,
                SessionOptions().withPolicy(
                    [] { return std::unique_ptr<ControlPolicy>(); })),
        std::invalid_argument);
    EXPECT_THROW(
        Session(p.app, p.table, p.model,
                SessionOptions().withStrategy(
                    [] { return std::unique_ptr<ActuationStrategy>(); })),
        std::invalid_argument);
}

TEST(Session, CustomPoliciesHoldTargetUnderCap)
{
    // The new control laws must also ride through the section 5.4
    // power cap on the toy plant.
    ToyApp::Config config;
    config.units = 600;
    auto p = makePipeline(config);
    const double expected = p.model.baselineSeconds();

    for (const auto &factory :
         {makePidPolicy(), makeGainScheduledPolicy()}) {
        sim::Machine machine;
        Session session(p.app, p.table, p.model,
                        SessionOptions()
                            .withPolicy(factory)
                            .withGovernor(sim::DvfsGovernor::powerCap(
                                machine, 0.25 * expected,
                                0.75 * expected)));
        const auto traced = runTraced(session, 2, machine);
        const auto &beats = traced.beats;
        const std::size_t lo = beats.size() * 2 / 5;
        const std::size_t hi = beats.size() * 3 / 5;
        double perf = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            perf += beats[i].normalized_perf;
        perf /= static_cast<double>(hi - lo);
        EXPECT_NEAR(perf, 1.0, 0.12)
            << session.policy().name() << " failed under the cap";
    }
}

TEST(Session, RebindKnobTableDrivesClone)
{
    auto p = makePipeline();
    auto clone = p.app.clone();
    KnobTable rebound = rebindKnobTable(p.table, *clone);
    ASSERT_EQ(rebound.variableCount(), p.table.variableCount());
    // Applying a combination through the rebound table must move the
    // *clone's* control variable, not the original's.
    const double original_k = p.app.k();
    rebound.apply(3);
    auto *toy = dynamic_cast<ToyApp *>(clone.get());
    ASSERT_NE(toy, nullptr);
    EXPECT_EQ(toy->k(), p.app.knobSpace().valuesOf(3)[0]);
    EXPECT_EQ(p.app.k(), original_k);
}

/** Property: the controller holds target across all seven P-states. */
class SessionAtFrequency : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SessionAtFrequency, HoldsBaselineRate)
{
    // The Figure 6 protocol: pin the machine at a P-state and ask
    // PowerDial to hold the 2.4 GHz baseline rate. The paper verifies
    // delivered performance within 5% of target at every state.
    ToyApp::Config config;
    config.units = 600;
    auto p = makePipeline(config);
    Session session(p.app, p.table, p.model);
    sim::Machine machine;
    machine.setPState(GetParam());
    const auto traced = runTraced(session, 2, machine);
    const std::size_t tail = traced.beats.size() * 3 / 4;
    double perf = 0.0;
    for (std::size_t i = tail; i < traced.beats.size(); ++i)
        perf += traced.beats[i].normalized_perf;
    perf /= static_cast<double>(traced.beats.size() - tail);
    EXPECT_NEAR(perf, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(PStates, SessionAtFrequency,
                         ::testing::Range<std::size_t>(0, 7));

TEST(SessionGate, CalledOncePerBeat)
{
    auto p = makePipeline();
    std::size_t calls = 0;
    std::size_t last_beat = 0;
    Session session(p.app, p.table, p.model,
                    SessionOptions().withGate(
                        [&](BeatGateContext &ctx) {
                            ++calls;
                            last_beat = ctx.beat;
                        }));
    sim::Machine machine;
    const auto run = session.run(2, machine);
    EXPECT_EQ(calls, run.beat_count);
    EXPECT_EQ(last_beat, run.beat_count - 1);
}

TEST(SessionGate, PauseSlowsTheRunAndKnobsCompensate)
{
    // An arbitration pause every beat is a capacity disturbance like
    // any other: the run takes idle time, and the control loop dials
    // knobs up to recover the target rate.
    ToyApp::Config config;
    config.units = 600;
    auto p = makePipeline(config);
    sim::Machine plain_machine;
    Session plain(p.app, p.table, p.model);
    const auto base = runTraced(plain, 2, plain_machine);

    const double beat_s = 1.0 / p.model.baselineRate();
    sim::Machine paused_machine;
    Session paused(p.app, p.table, p.model,
                   SessionOptions().withGate(
                       [beat_s](BeatGateContext &ctx) {
                           ctx.pause_seconds = 0.5 * beat_s;
                       }));
    const auto throttled = runTraced(paused, 2, paused_machine);

    // The paused run pays idle time but claws rate back with knobs:
    // QoS loss appears, and tail performance recovers near target.
    EXPECT_GT(throttled.run.seconds, base.run.seconds);
    EXPECT_GT(throttled.run.mean_qos_loss_estimate,
              base.run.mean_qos_loss_estimate);
    const auto &beats = throttled.beats;
    const std::size_t tail = beats.size() * 3 / 4;
    double perf = 0.0;
    for (std::size_t i = tail; i < beats.size(); ++i)
        perf += beats[i].normalized_perf;
    perf /= static_cast<double>(beats.size() - tail);
    EXPECT_NEAR(perf, 1.0, 0.10);
}

TEST(SessionGate, PausePerBusyMeetsAnAveragePowerBudget)
{
    // Duty-cycling through the gate's per-busy ratio holds the
    // machine at (W_busy + r * W_idle) / (1 + r) watts on average —
    // the contract the fleet power arbiter relies on to meet a
    // budget below the slowest P-state's draw. Knobs off so busy
    // power is constant.
    auto p = makePipeline();
    const double r = 2.0;
    Session session(p.app, p.table, p.model,
                    SessionOptions()
                        .withKnobsEnabled(false)
                        .withGate([r](BeatGateContext &ctx) {
                            ctx.pause_per_busy = r;
                        }));
    sim::Machine machine;
    machine.setUtilization(1.0);
    session.run(2, machine);
    const auto &power = machine.powerModel();
    const double busy_watts =
        power.watts(machine.frequencyHz(), 1.0);
    const double expected =
        (busy_watts + r * power.idleWatts()) / (1.0 + r);
    EXPECT_NEAR(machine.meanWatts(), expected, 1e-9);
}

// ---------------------------------------------------------------------
// Gate composition helpers.
// ---------------------------------------------------------------------

TEST(GateHelpers, ComposeRunsEveryGateInOrderOnOneContext)
{
    std::vector<int> order;
    BeatGate composed = composeGates(
        {[&order](BeatGateContext &ctx) {
             order.push_back(1);
             ctx.pause_per_busy += 0.25;
         },
         [&order](BeatGateContext &ctx) {
             order.push_back(2);
             ctx.pause_per_busy += 0.5;
         }});
    ASSERT_TRUE(static_cast<bool>(composed));
    sim::Machine machine;
    BeatGateContext ctx{0, machine};
    composed(ctx);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(ctx.pause_per_busy, 0.75);
}

TEST(GateHelpers, ComposeSkipsNullGates)
{
    std::size_t calls = 0;
    BeatGate composed = composeGates(
        nullptr, [&calls](BeatGateContext &) { ++calls; });
    ASSERT_TRUE(static_cast<bool>(composed));
    sim::Machine machine;
    BeatGateContext ctx{0, machine};
    composed(ctx);
    EXPECT_EQ(calls, 1u);

    // All-null composition collapses to "no gate".
    EXPECT_FALSE(static_cast<bool>(composeGates(nullptr, nullptr)));
    EXPECT_FALSE(static_cast<bool>(composeGates({})));
}

TEST(GateHelpers, DutyCycleGateAddsFixedRatio)
{
    BeatGate gate = makeDutyCycleGate(0.4);
    ASSERT_TRUE(static_cast<bool>(gate));
    sim::Machine machine;
    BeatGateContext ctx{0, machine};
    ctx.pause_per_busy = 0.1; // Composes additively with prior gates.
    gate(ctx);
    EXPECT_DOUBLE_EQ(ctx.pause_per_busy, 0.5);

    // A zero ratio is "no gate"; a negative one is a caller bug.
    EXPECT_FALSE(static_cast<bool>(makeDutyCycleGate(0.0)));
    EXPECT_THROW(makeDutyCycleGate(-0.1), std::invalid_argument);
}

TEST(GateHelpers, ComposedDutyCycleGatesSlowARunTogether)
{
    // End to end: two composed duty-cycle gates behave like one gate
    // with the summed ratio (knobs off isolates the pause effect).
    auto p = makePipeline();
    const auto timedRun = [&p](BeatGate gate) {
        auto clone = p.app.clone();
        KnobTable table = rebindKnobTable(p.table, *clone);
        Session session(*clone, table, p.model,
                        SessionOptions()
                            .withKnobsEnabled(false)
                            .withGate(std::move(gate)));
        sim::Machine machine;
        return session.run(2, machine).seconds;
    };
    const double plain = timedRun(nullptr);
    const double composed = timedRun(composeGates(
        makeDutyCycleGate(0.25), makeDutyCycleGate(0.25)));
    const double summed = timedRun(makeDutyCycleGate(0.5));
    EXPECT_DOUBLE_EQ(composed, summed);
    EXPECT_NEAR(composed / plain, 1.5, 1e-9);
}

// ---------------------------------------------------------------------
// Epoch-sliced stepping (the persistent-tenant entry points).
// ---------------------------------------------------------------------

TEST(SessionStepping, SlicedRunIsBitIdenticalToOneShotRun)
{
    // advanceUntil with deadlines must execute the identical beat
    // sequence as run(): slicing only changes when (in host time) the
    // beats execute, never what they compute.
    auto p = makePipeline();
    auto one_shot_app = p.app.clone();
    KnobTable one_shot_table = rebindKnobTable(p.table, *one_shot_app);
    Session one_shot(*one_shot_app, one_shot_table, p.model);
    auto &one_shot_trace = one_shot.attach<BeatTraceRecorder>();
    sim::Machine one_shot_machine;
    const auto reference = one_shot.run(2, one_shot_machine);

    auto sliced_app = p.app.clone();
    KnobTable sliced_table = rebindKnobTable(p.table, *sliced_app);
    Session sliced(*sliced_app, sliced_table, p.model);
    auto &sliced_trace = sliced.attach<BeatTraceRecorder>();
    sim::Machine sliced_machine;
    sliced.start(2, sliced_machine);
    EXPECT_TRUE(sliced.active());
    const double quarter = reference.seconds / 4.0;
    std::optional<ControlledRun> done;
    std::size_t slices = 0;
    for (std::size_t k = 1; !done.has_value(); ++k) {
        done = sliced.advanceUntil(static_cast<double>(k) * quarter);
        ++slices;
    }
    EXPECT_GE(slices, 4u);
    EXPECT_FALSE(sliced.active());

    EXPECT_EQ(done->beat_count, reference.beat_count);
    EXPECT_EQ(done->seconds, reference.seconds);
    EXPECT_EQ(done->mean_qos_loss_estimate,
              reference.mean_qos_loss_estimate);
    ASSERT_EQ(sliced_trace.beats().size(), one_shot_trace.beats().size());
    for (std::size_t i = 0; i < sliced_trace.beats().size(); ++i) {
        const BeatTrace &a = sliced_trace.beats()[i];
        const BeatTrace &b = one_shot_trace.beats()[i];
        EXPECT_EQ(a.time_s, b.time_s) << "beat " << i;
        EXPECT_EQ(a.window_rate, b.window_rate) << "beat " << i;
        EXPECT_EQ(a.combination, b.combination) << "beat " << i;
        EXPECT_EQ(a.pstate, b.pstate) << "beat " << i;
    }
}

TEST(SessionStepping, DeadlineInThePastRunsNoBeats)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model);
    sim::Machine machine;
    session.start(2, machine);
    EXPECT_FALSE(session.advanceUntil(0.0).has_value());
    EXPECT_EQ(session.unitsProcessed(), 0u);
    EXPECT_TRUE(session.active());
    const auto done = session.advanceUntil(
        std::numeric_limits<double>::infinity());
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->beat_count, p.app.unitCount());
}

TEST(SessionStepping, MisuseThrows)
{
    auto p = makePipeline();
    Session session(p.app, p.table, p.model);
    EXPECT_THROW(session.advanceUntil(1.0), std::logic_error);
    sim::Machine machine;
    session.start(2, machine);
    EXPECT_THROW(session.start(2, machine), std::logic_error);
    // run() on a session with a run in flight is the same misuse.
    EXPECT_THROW(session.run(2, machine), std::logic_error);
}

TEST(SessionGate, GateCanActuateTheMachine)
{
    // External arbitration mid-run: the gate installs a frequency cap
    // halfway through, and the remaining beats run slower.
    auto p = makePipeline();
    const std::size_t half = p.app.unitCount() / 2;
    Session session(
        p.app, p.table, p.model,
        SessionOptions().withGate([half](BeatGateContext &ctx) {
            if (ctx.beat == half)
                ctx.machine.setPStateCap(
                    ctx.machine.scale().lowestState());
        }));
    sim::Machine machine;
    const auto traced = runTraced(session, 2, machine);
    EXPECT_EQ(traced.beats.front().pstate, 0u);
    EXPECT_EQ(traced.beats.back().pstate,
              machine.scale().lowestState());
}

} // namespace
} // namespace powerdial::core

/** @file Unit and property tests for the actuation strategies. */
#include <gtest/gtest.h>

#include <random>

#include "core/actuation_strategy.h"
#include "core/session.h"
#include "toy_app.h"

namespace powerdial::core {
namespace {

ResponseModel
model()
{
    // Frontier: (1, 0), (2, 0.01), (4, 0.05), (8, 0.2).
    return ResponseModel({{0, 1.0, 0.00},
                          {1, 2.0, 0.01},
                          {2, 4.0, 0.05},
                          {3, 8.0, 0.20}},
                         0, 10.0, 5.0);
}

MinimalSpeedupStrategy
minimal(const ResponseModel &m, std::size_t quantum = 20)
{
    MinimalSpeedupStrategy s;
    s.begin(m, quantum);
    return s;
}

RaceToIdleStrategy
race(const ResponseModel &m, std::size_t quantum = 20)
{
    RaceToIdleStrategy s;
    s.begin(m, quantum);
    return s;
}

/** @p strategy's plan for @p speedup, in a fresh plan. */
ActuationPlan
planFor(ActuationStrategy &strategy, double speedup)
{
    ActuationPlan plan;
    strategy.plan(speedup, plan);
    return plan;
}

TEST(ActuationStrategy, PaperExampleSpeedupOneAndAHalf)
{
    // Paper section 2.3.3: command 1.5 with available speedups {1, 2}
    // -> half the quantum at 2, half at the default.
    const auto m = model();
    auto act = minimal(m);
    const auto plan = planFor(act, 1.5);
    ASSERT_EQ(plan.slices.size(), 2u);
    EXPECT_EQ(plan.slices[0].combination, 1u);
    EXPECT_NEAR(plan.slices[0].fraction, 0.5, 1e-12);
    EXPECT_EQ(plan.slices[1].combination, 0u);
    EXPECT_NEAR(plan.slices[1].fraction, 0.5, 1e-12);
    EXPECT_NEAR(plan.averageSpeedup(), 1.5, 1e-12);
    EXPECT_DOUBLE_EQ(plan.idle_fraction, 0.0);
}

TEST(ActuationStrategy, MinimalSpeedupUsesSlowestSufficientSetting)
{
    const auto m = model();
    auto act = minimal(m);
    // Command 3: s_min = 4 (slowest Pareto speedup >= 3), mixed with
    // the default, not with s_max = 8.
    const auto plan = planFor(act, 3.0);
    for (const auto &s : plan.slices)
        EXPECT_NE(s.combination, 3u);
    EXPECT_NEAR(plan.averageSpeedup(), 3.0, 1e-12);
}

TEST(ActuationStrategy, CommandAtBaselineRunsDefaultOnly)
{
    const auto m = model();
    auto act = minimal(m);
    const auto plan = planFor(act, 1.0);
    ASSERT_EQ(plan.slices.size(), 1u);
    EXPECT_EQ(plan.slices[0].combination, 0u);
    EXPECT_DOUBLE_EQ(plan.slices[0].fraction, 1.0);
}

TEST(ActuationStrategy, CommandBelowBaselineClamps)
{
    const auto m = model();
    auto act = minimal(m);
    const auto plan = planFor(act, 0.25);
    ASSERT_EQ(plan.slices.size(), 1u);
    EXPECT_EQ(plan.slices[0].combination, 0u);
}

TEST(ActuationStrategy, CommandBeyondMaxRunsFlatOut)
{
    const auto m = model();
    auto act = minimal(m);
    const auto plan = planFor(act, 50.0);
    ASSERT_EQ(plan.slices.size(), 1u);
    EXPECT_EQ(plan.slices[0].combination, 3u);
    EXPECT_NEAR(plan.averageSpeedup(), 8.0, 1e-12);
}

TEST(ActuationStrategy, RaceToIdleSprintsThenIdles)
{
    const auto m = model();
    auto act = race(m);
    // Command 2 with s_max = 8: run the fastest setting for 1/4 of the
    // quantum, idle 3/4.
    const auto plan = planFor(act, 2.0);
    ASSERT_EQ(plan.slices.size(), 1u);
    EXPECT_EQ(plan.slices[0].combination, 3u);
    EXPECT_NEAR(plan.slices[0].fraction, 0.25, 1e-12);
    EXPECT_NEAR(plan.idle_fraction, 0.75, 1e-12);
    // Idle per busy second: 0.75 / 0.25 = 3.
    EXPECT_NEAR(plan.idlePerBusySecond(), 3.0, 1e-12);
}

TEST(ActuationStrategy, RaceToIdleNeverExceedsQuantum)
{
    const auto m = model();
    auto act = race(m);
    const auto plan = planFor(act, 100.0);
    EXPECT_NEAR(plan.slices[0].fraction, 1.0, 1e-12);
    EXPECT_NEAR(plan.idle_fraction, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(plan.idlePerBusySecond(), 0.0);
}

TEST(ActuationStrategy, BeatScheduleLaysSlicesContiguously)
{
    const auto m = model();
    auto act = minimal(m, 20);
    const auto plan = planFor(act, 1.5);
    KnobSchedule schedule;
    schedule.compile(plan, 20);
    // First half of the quantum at the fast setting, rest at default.
    std::size_t fast_beats = 0;
    for (std::size_t beat = 0; beat < 20; ++beat) {
        const auto combo = schedule.next();
        if (combo == 1u)
            ++fast_beats;
        if (beat >= 10) {
            EXPECT_EQ(combo, 0u);
        }
    }
    EXPECT_EQ(fast_beats, 10u);
}

TEST(ActuationStrategy, AverageQosLossIsWorkWeighted)
{
    const auto m = model();
    auto act = minimal(m);
    const auto plan = planFor(act, 1.5);
    // Slices: (s=2, qos=0.01) at 0.5, (s=1, qos=0) at 0.5.
    // Work weights: 1.0 vs 0.5 -> loss = 0.01 * (1.0 / 1.5).
    EXPECT_NEAR(plan.averageQosLoss(), 0.01 * (1.0 / 1.5), 1e-12);
}

TEST(ActuationStrategy, Validation)
{
    const auto m = model();
    MinimalSpeedupStrategy strategy;
    EXPECT_THROW(strategy.begin(m, 0), std::invalid_argument);
    EXPECT_THROW(planFor(strategy, 1.0), std::logic_error);
    EXPECT_THROW(QosBudgetStrategy{-0.1}, std::invalid_argument);
}

TEST(ActuationStrategy, Names)
{
    EXPECT_EQ(MinimalSpeedupStrategy().name(), "minimal-speedup");
    EXPECT_EQ(RaceToIdleStrategy().name(), "race-to-idle");
    EXPECT_EQ(QosBudgetStrategy(0.01).name(), "qos-budget");
}

// ---------------------------------------------------------------------------
// QosBudgetStrategy
// ---------------------------------------------------------------------------

TEST(QosBudget, LargeBudgetMatchesMinimalSpeedup)
{
    const auto m = model();
    QosBudgetStrategy budget(1.0); // Never binding.
    budget.begin(m, 20);
    auto act = minimal(m);
    for (const double cmd : {1.0, 1.5, 2.7, 4.0, 8.0}) {
        const auto a = planFor(budget, cmd);
        const auto b = planFor(act, cmd);
        ASSERT_EQ(a.slices.size(), b.slices.size());
        for (std::size_t i = 0; i < a.slices.size(); ++i) {
            EXPECT_EQ(a.slices[i].combination, b.slices[i].combination);
            EXPECT_DOUBLE_EQ(a.slices[i].fraction, b.slices[i].fraction);
        }
    }
}

TEST(QosBudget, ZeroBudgetPinsBaseline)
{
    const auto m = model();
    QosBudgetStrategy budget(0.0);
    budget.begin(m, 20);
    for (const double cmd : {1.0, 2.0, 8.0}) {
        const auto plan = planFor(budget, cmd);
        ASSERT_EQ(plan.slices.size(), 1u);
        EXPECT_EQ(plan.slices[0].combination, 0u);
        EXPECT_DOUBLE_EQ(plan.averageQosLoss(), 0.0);
    }
    EXPECT_DOUBLE_EQ(budget.meanSpent(), 0.0);
}

TEST(QosBudget, RunningMeanNeverExceedsBudget)
{
    const auto m = model();
    const double cap = 0.02;
    QosBudgetStrategy budget(cap);
    budget.begin(m, 20);
    // Hammer the strategy with expensive commands; the running mean
    // of spent QoS loss must stay within the budget at every quantum.
    for (int q = 0; q < 200; ++q) {
        planFor(budget, 8.0);
        EXPECT_LE(budget.meanSpent(), cap + 1e-12)
            << "quantum " << q;
    }
    // And the strategy must still be *spending* the budget, not just
    // sitting at the baseline: the mean should approach the cap.
    EXPECT_GT(budget.meanSpent(), 0.5 * cap);
}

TEST(QosBudget, BanksUnspentAllowance)
{
    const auto m = model();
    QosBudgetStrategy budget(0.01);
    budget.begin(m, 20);
    // Ten cheap quanta bank allowance...
    for (int q = 0; q < 10; ++q) {
        const auto plan = planFor(budget, 1.0);
        EXPECT_DOUBLE_EQ(plan.averageQosLoss(), 0.0);
    }
    // ...so the next expensive quantum may exceed the per-quantum rate
    // while the running mean stays under the cap.
    const auto plan = planFor(budget, 8.0);
    EXPECT_GT(plan.averageQosLoss(), 0.01);
    EXPECT_LE(budget.meanSpent(), 0.01 + 1e-12);
}

TEST(QosBudget, BeginResetsSpend)
{
    const auto m = model();
    QosBudgetStrategy budget(0.01);
    budget.begin(m, 20);
    for (int q = 0; q < 5; ++q)
        planFor(budget, 8.0);
    EXPECT_GT(budget.meanSpent(), 0.0);
    budget.begin(m, 20);
    EXPECT_DOUBLE_EQ(budget.meanSpent(), 0.0);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/**
 * Property: for any achievable command, the minimal-speedup plan's
 * quantum-average speedup equals the command exactly, and the plan
 * never uses a setting faster than the slowest sufficient one.
 */
class PlanAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(PlanAccuracy, AverageEqualsCommand)
{
    const auto m = model();
    auto act = minimal(m);
    const double cmd = GetParam();
    const auto plan = planFor(act, cmd);
    EXPECT_NEAR(plan.averageSpeedup(), cmd, 1e-9);
    double fractions = plan.idle_fraction;
    for (const auto &s : plan.slices)
        fractions += s.fraction;
    EXPECT_NEAR(fractions, 1.0, 1e-9); // Equation 10 at equality.
}

INSTANTIATE_TEST_SUITE_P(Commands, PlanAccuracy,
                         ::testing::Values(1.0, 1.1, 1.5, 1.9, 2.0, 2.7,
                                           3.9, 4.0, 5.5, 7.9, 8.0));

/** Property: race-to-idle also meets the command on average. */
class RaceAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(RaceAccuracy, WorkMatchesCommand)
{
    const auto m = model();
    auto act = race(m);
    const double cmd = GetParam();
    const auto plan = planFor(act, cmd);
    // Work produced = s_max * busy fraction = command.
    EXPECT_NEAR(plan.averageSpeedup(), cmd, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Commands, RaceAccuracy,
                         ::testing::Values(1.0, 1.5, 2.0, 4.0, 6.0, 8.0));

/**
 * Property: whatever the command sequence, the QoS-budget strategy's
 * running mean stays within budget while delivering no more speedup
 * than the unconstrained minimal-speedup plan.
 */
class BudgetCompliance : public ::testing::TestWithParam<double>
{
};

TEST_P(BudgetCompliance, MeanWithinCap)
{
    const auto m = model();
    const double cap = GetParam();
    QosBudgetStrategy budget(cap);
    budget.begin(m, 20);
    auto act = minimal(m);
    double cmd = 1.0;
    for (int q = 0; q < 150; ++q) {
        cmd = cmd > 7.5 ? 1.0 : cmd + 0.61;
        const auto constrained = planFor(budget, cmd);
        const auto free = planFor(act, cmd);
        EXPECT_LE(constrained.averageSpeedup(),
                  free.averageSpeedup() + 1e-9);
        EXPECT_LE(budget.meanSpent(), cap + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetCompliance,
                         ::testing::Values(0.0, 0.005, 0.02, 0.1, 0.5));

// ---------------------------------------------------------------------
// The compiled schedule against the per-beat layout it replaced.
// ---------------------------------------------------------------------

/**
 * The per-beat layout the session evaluated at every beat before plans
 * were compiled, verbatim: the bit-equality oracle for KnobSchedule.
 */
std::size_t
referenceCombinationAtBeat(const ActuationPlan &plan, std::size_t beat,
                           std::size_t quantum_beats)
{
    const auto &slices = plan.slices;
    const double idle_fraction = plan.idle_fraction;
    if (slices.empty())
        throw std::logic_error("ActuationPlan: empty plan");
    if (quantum_beats == 0)
        throw std::invalid_argument("ActuationPlan: quantum must be >= 1");
    const double pos = (static_cast<double>(beat % quantum_beats) + 0.5) /
                       static_cast<double>(quantum_beats);
    // Beats are laid out over the busy portion of the quantum.
    const double busy = 1.0 - idle_fraction;
    double acc = 0.0;
    for (const auto &s : slices) {
        acc += s.fraction / (busy > 0.0 ? busy : 1.0);
        if (pos * 1.0 <= acc * 1.0 + 1e-12)
            return s.combination;
    }
    return slices.back().combination;
}

/**
 * A seeded plan of 1-4 slices (distinct combinations, so a wrong slice
 * shows). Fractions and the idle fraction mix uniform draws with
 * grid values j / (2n) that put slice bounds exactly on or next to
 * beat positions; the idle fraction is exactly 0 or exactly 1 at
 * times (a fully idle plan lays its beats out over the whole quantum).
 */
ActuationPlan
randomPlan(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 9);
    const auto draw = [&] {
        const int kind = pick(rng);
        if (kind < 5)
            return unit(rng);
        const int n = 1 + pick(rng) * 7;
        std::uniform_int_distribution<int> j(0, 2 * n);
        return static_cast<double>(j(rng)) / (2.0 * n);
    };
    ActuationPlan plan;
    const int kind = pick(rng);
    plan.idle_fraction = kind < 3 ? 0.0 : kind == 3 ? 1.0 : draw();
    const std::size_t slices = 1 + static_cast<std::size_t>(pick(rng) % 4);
    for (std::size_t k = 0; k < slices; ++k)
        plan.slices.push_back({10 + k, draw(), 1.0, 0.0});
    return plan;
}

TEST(KnobSchedule, MatchesPerBeatLayoutBitForBit)
{
    // One schedule compiles every plan, reusing its storage the way a
    // session does; each plan is walked for three quanta, restarting
    // under the same plan as a session does when the window rate at a
    // quantum boundary is 0.
    std::mt19937_64 rng(20110305);
    KnobSchedule schedule;
    for (int trial = 0; trial < 4000; ++trial) {
        const ActuationPlan plan = randomPlan(rng);
        const std::size_t quantum = 1 + rng() % 64;
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " quantum " << quantum);
        schedule.compile(plan, quantum);
        EXPECT_EQ(schedule.idlePerBusySecond(), plan.idlePerBusySecond());
        for (std::size_t q = 0; q < 3; ++q) {
            if (q > 0)
                schedule.restart();
            for (std::size_t b = 0; b < quantum; ++b) {
                ASSERT_FALSE(schedule.quantumDone());
                const std::size_t beat = q * quantum + b;
                const std::size_t expected =
                    referenceCombinationAtBeat(plan, beat, quantum);
                ASSERT_EQ(schedule.next(), expected) << "beat " << beat;
            }
            EXPECT_TRUE(schedule.quantumDone());
        }
    }
}

TEST(KnobSchedule, Validation)
{
    KnobSchedule schedule;
    EXPECT_THROW(schedule.compile(ActuationPlan{}, 20), std::logic_error);
    ActuationPlan plan;
    plan.slices.push_back({0, 1.0, 1.0, 0.0});
    EXPECT_THROW(schedule.compile(plan, 0), std::invalid_argument);
}

/** Installs one fixed three-slice plan at every quantum. */
class FixedPlanStrategy final : public ActuationStrategy
{
  public:
    std::string name() const override { return "fixed"; }
    void begin(const ResponseModel &, std::size_t) override {}
    void
    plan(double, ActuationPlan &out) override
    {
        out.slices = {{2, 0.3, 4.0, 0.03},
                      {1, 0.45, 2.0, 0.01},
                      {0, 0.25, 1.0, 0.0}};
        out.idle_fraction = 0.0;
    }
};

/** A ToyApp whose units in [16, 24) do no work, so time stands still
 *  and the heartbeat window's rate drops to 0. */
class StallingApp final : public tests::ToyApp
{
  public:
    void
    processUnit(std::size_t unit, sim::Machine &machine) override
    {
        if (unit < 16 || unit >= 24)
            ToyApp::processUnit(unit, machine);
    }
};

/** Records the beat of every re-plan. */
class QuantumLog final : public RunObserver
{
  public:
    void onQuantum(const QuantumEvent &event) override
    {
        beats.push_back(event.beat);
    }
    std::vector<std::size_t> beats;
};

TEST(KnobSchedule, SessionKeepsAPlanAcrossARateZeroBoundary)
{
    // Quanta of 8 beats and a 4-beat window: the boundaries at beats 8
    // and 16 install the fixed plan; units 16-23 take no time, so at
    // beat 24 the window's rate is 0 and the plan stays installed for
    // a second quantum, restarting from its first slice; beat 32
    // re-plans again. Every beat must run the combination the per-beat
    // layout gives for the plan in force.
    StallingApp app;
    KnobTable table;
    app.bindControlVariables(table);
    for (std::size_t c = 0; c < 4; ++c)
        table.record(c, 0, {app.knobSpace().valuesOf(c)[0]});
    const ResponseModel model({{0, 1.0, 0.0},
                               {1, 2.0, 0.01},
                               {2, 4.0, 0.03},
                               {3, 8.0, 0.07}},
                              0, 1.0, 1000.0);
    Session session(app, table, model,
                    SessionOptions()
                        .withQuantum(8)
                        .withWindow(4)
                        .withStrategy([] {
                            return std::make_unique<FixedPlanStrategy>();
                        }));
    auto &beats = session.attach<BeatTraceRecorder>();
    auto &quanta = session.attach<QuantumLog>();
    sim::Machine machine;
    session.run(2, machine);

    const std::vector<std::size_t> replans = {8, 16, 32, 40, 48, 56};
    ASSERT_GE(quanta.beats.size(), replans.size());
    for (std::size_t i = 0; i < replans.size(); ++i)
        EXPECT_EQ(quanta.beats[i], replans[i]);

    ActuationPlan baseline;
    baseline.slices.push_back({0, 1.0, 1.0, 0.0});
    ActuationPlan fixed;
    FixedPlanStrategy().plan(0.0, fixed);
    ASSERT_EQ(beats.beats().size(), app.unitCount());
    std::size_t fixed_at_rate_zero = 0;
    for (std::size_t u = 0; u < beats.beats().size(); ++u) {
        const ActuationPlan &in_force = u < 8 ? baseline : fixed;
        EXPECT_EQ(beats.beats()[u].combination,
                  referenceCombinationAtBeat(in_force, u, 8))
            << "beat " << u;
        if (u >= 24 && u < 32 && beats.beats()[u].combination != 0)
            ++fixed_at_rate_zero;
    }
    // The kept plan really ran its faster slices after the boundary.
    EXPECT_GT(fixed_at_rate_zero, 0u);
}

} // namespace
} // namespace powerdial::core

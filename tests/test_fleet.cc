/** @file Tests for the fleet serving subsystem. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "fleet/metrics_hub.h"
#include "fleet/power_arbiter.h"
#include "fleet/scheduler.h"
#include "fleet/server.h"
#include "fleet_scenarios.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/rng.h"

namespace powerdial::fleet {
namespace {

using powerdial::tests::ToyApp;
using tests::admitJob;
using tests::expectReportsIdentical;
using tests::makePipeline;

// ---------------------------------------------------------------------
// Scheduler placement properties.
// ---------------------------------------------------------------------

TEST(Scheduler, LeastLoadedMatchesAnalyticBalance)
{
    // Incremental least-loaded placement of k jobs must land on the
    // same per-machine counts as the analytic proportional balancer,
    // including non-divisible counts.
    for (const std::size_t jobs : {0u, 1u, 7u, 10u, 32u, 37u}) {
        sim::Cluster cluster(4, sim::Machine::Config{});
        Scheduler scheduler(cluster, SchedulerOptions{});
        for (std::size_t k = 0; k < jobs; ++k)
            admitJob(scheduler);
        EXPECT_EQ(cluster.activeCounts(), cluster.balance(jobs))
            << "jobs=" << jobs;
    }
}

TEST(Scheduler, LeastLoadedNeverOversubscribesBelowCapacity)
{
    sim::Cluster cluster(4, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{});
    for (std::size_t k = 0; k < cluster.peakInstances(); ++k) {
        admitJob(scheduler);
        for (std::size_t i = 0; i < cluster.size(); ++i)
            EXPECT_LE(cluster.activeOn(i),
                      cluster.machine(i).cores());
    }
}

TEST(Scheduler, LeastLoadedTieBreaksTowardLowestIndex)
{
    sim::Cluster cluster(3, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{});
    EXPECT_EQ(admitJob(scheduler), 0u);
    EXPECT_EQ(admitJob(scheduler), 1u);
    EXPECT_EQ(admitJob(scheduler), 2u);
    EXPECT_EQ(admitJob(scheduler), 0u); // All equal again.
}

TEST(Scheduler, ReleaseReopensTheMachine)
{
    sim::Cluster cluster(2, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{});
    EXPECT_EQ(admitJob(scheduler), 0u);
    EXPECT_EQ(admitJob(scheduler), 1u);
    scheduler.release(0);
    EXPECT_EQ(admitJob(scheduler), 0u);
}

TEST(Scheduler, PowerAwarePacksSaturatedMachines)
{
    // The power model is linear in utilisation below saturation and
    // flat above it, so an already-saturated machine has zero
    // marginal power cost: power-aware placement packs it while
    // least-loaded would spread.
    sim::Cluster cluster(2, sim::Machine::Config{});
    Scheduler scheduler(
        cluster, SchedulerOptions{makePowerAwarePlacement(), 0, {}, nullptr});
    const std::size_t cores = cluster.machine(0).cores();
    for (std::size_t k = 0; k < cores; ++k)
        cluster.place(0); // Saturate machine 0 by hand.
    EXPECT_EQ(admitJob(scheduler), 0u);
    EXPECT_EQ(cluster.activeOn(0), cores + 1);
    EXPECT_EQ(cluster.activeOn(1), 0u);
}

TEST(Scheduler, PowerAwarePrefersCappedMachines)
{
    // A frequency-capped machine burns fewer watts per marginal job.
    sim::Cluster cluster(2, sim::Machine::Config{});
    const std::size_t slowest =
        cluster.machine(1).scale().states() - 1;
    cluster.machine(1).setPStateCap(slowest);
    Scheduler scheduler(
        cluster, SchedulerOptions{makePowerAwarePlacement(), 0, {}, nullptr});
    EXPECT_EQ(admitJob(scheduler), 1u);
}

// ---------------------------------------------------------------------
// Bounded run queues and admission control.
// ---------------------------------------------------------------------

TEST(Scheduler, ShedsWhenEveryMachineIsAtTheBound)
{
    sim::Cluster cluster(2, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{nullptr, 3, {}, nullptr});
    for (std::size_t k = 0; k < 6; ++k)
        EXPECT_TRUE(admitJob(scheduler).has_value()) << "k=" << k;
    EXPECT_FALSE(admitJob(scheduler).has_value());
    EXPECT_FALSE(admitJob(scheduler).has_value());
    EXPECT_EQ(scheduler.shedCount(), 2u);
    // A release reopens exactly one slot.
    scheduler.release(1);
    const auto machine = admitJob(scheduler);
    ASSERT_TRUE(machine.has_value());
    EXPECT_EQ(*machine, 1u);
    EXPECT_EQ(scheduler.shedCount(), 2u);
}

TEST(Scheduler, FullPolicyPickOverflowsToMachineWithRoom)
{
    // Power-aware placement packs machine 0 (saturated = zero
    // marginal watts); with a depth bound the overflow must land on
    // the emptier machine instead of being shed.
    sim::Cluster cluster(2, sim::Machine::Config{});
    const std::size_t cores = cluster.machine(0).cores();
    Scheduler scheduler(cluster,
                        SchedulerOptions{
                            makePowerAwarePlacement(), cores + 1,
                            {}, nullptr});
    for (std::size_t k = 0; k < cores + 1; ++k)
        cluster.place(0); // Fill machine 0 to the bound by hand.
    const auto machine = admitJob(scheduler);
    ASSERT_TRUE(machine.has_value());
    EXPECT_EQ(*machine, 1u);
    EXPECT_EQ(scheduler.shedCount(), 0u);
}

TEST(Scheduler, UnboundedAdmitNeverSheds)
{
    sim::Cluster cluster(1, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{});
    EXPECT_EQ(scheduler.queueDepth(), 0u);
    for (std::size_t k = 0; k < 4 * cluster.peakInstances(); ++k)
        EXPECT_TRUE(admitJob(scheduler).has_value()) << "k=" << k;
    EXPECT_EQ(scheduler.shedCount(), 0u);
}

TEST(Scheduler, ShedsAreChargedToThePolicyPick)
{
    // Least-loaded on a full cluster ties toward machine 0, so every
    // shed job is charged there: the count says which host demand was
    // aimed at when it was turned away.
    sim::Cluster cluster(2, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{nullptr, 1, {}, nullptr});
    EXPECT_TRUE(admitJob(scheduler).has_value());
    EXPECT_TRUE(admitJob(scheduler).has_value());
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_FALSE(admitJob(scheduler).has_value());
    EXPECT_EQ(scheduler.shedCount(), 3u);
    EXPECT_EQ(scheduler.shedByMachine(),
              (std::vector<std::size_t>{3, 0}));
}

TEST(Scheduler, ShedAttributionFollowsThePlacementPolicy)
{
    // Power-aware placement prefers the frequency-capped machine 1;
    // with the whole cluster at the bound, the sheds land on machine
    // 1's ledger, not machine 0's.
    sim::Cluster cluster(2, sim::Machine::Config{});
    cluster.machine(1).setPStateCap(
        cluster.machine(1).scale().states() - 1);
    Scheduler scheduler(
        cluster, SchedulerOptions{makePowerAwarePlacement(), 2, {}, nullptr});
    cluster.place(0);
    cluster.place(0);
    cluster.place(1);
    cluster.place(1); // Both machines at the bound, by hand.
    EXPECT_FALSE(admitJob(scheduler).has_value());
    EXPECT_EQ(scheduler.shedByMachine(),
              (std::vector<std::size_t>{0, 1}));
}

TEST(Scheduler, ShedAttributionSumsToShedCount)
{
    sim::Cluster cluster(3, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{nullptr, 2, {}, nullptr});
    std::size_t admitted = 0;
    for (std::size_t k = 0; k < 11; ++k)
        if (admitJob(scheduler).has_value())
            ++admitted;
    EXPECT_EQ(admitted, 6u);
    EXPECT_EQ(scheduler.shedCount(), 5u);
    std::size_t attributed = 0;
    for (const std::size_t count : scheduler.shedByMachine())
        attributed += count;
    EXPECT_EQ(attributed, scheduler.shedCount());
    // A release reopens a slot; the next admit does not shed and the
    // attribution stays frozen.
    scheduler.release(2);
    EXPECT_TRUE(admitJob(scheduler).has_value());
    EXPECT_EQ(scheduler.shedCount(), 5u);
}

TEST(Scheduler, RejectsBadJobTermsBeforeCounting)
{
    // A full one-slot machine sheds every offer, and a shed grows the
    // per-class tally to class + 1 entries: class SIZE_MAX would wrap
    // that to 0 and write past the end. The scheduler must throw
    // before the policy decides or any counter moves.
    sim::Cluster cluster(1, sim::Machine::Config{});
    Scheduler scheduler(cluster, SchedulerOptions{nullptr, 1, {}, nullptr});
    ASSERT_TRUE(admitJob(scheduler).has_value());
    EXPECT_FALSE(admitJob(scheduler).has_value());
    const std::vector<std::size_t> by_class = scheduler.shedByClass();
    EXPECT_EQ(by_class, (std::vector<std::size_t>{1}));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const OfferedJob &bad :
         {OfferedJob{kRoundRobinTenant, SIZE_MAX, 0.0},
          OfferedJob{kRoundRobinTenant, 0, nan},
          OfferedJob{kRoundRobinTenant, 0, -1.0}}) {
        EXPECT_THROW(scheduler.tryAdmit(bad), std::invalid_argument);
        EXPECT_EQ(scheduler.shedCount(), 1u);
        EXPECT_EQ(scheduler.shedByClass(), by_class);
        EXPECT_EQ(scheduler.shedByMachine(),
                  (std::vector<std::size_t>{1}));
    }
}

// ---------------------------------------------------------------------
// Power arbiter: budget conservation and cap translation.
// ---------------------------------------------------------------------

void
placeSome(sim::Cluster &cluster, const std::vector<std::size_t> &counts)
{
    for (std::size_t i = 0; i < counts.size(); ++i)
        for (std::size_t k = 0; k < counts[i]; ++k)
            cluster.place(i);
}

TEST(PowerArbiter, BudgetsConserveTheCapUnderEveryPolicy)
{
    for (const ArbiterPolicy policy :
         {ArbiterPolicy::Uniform, ArbiterPolicy::UtilizationProportional,
          ArbiterPolicy::QosFeedback}) {
        sim::Cluster cluster(4, sim::Machine::Config{});
        placeSome(cluster, {9, 3, 0, 1});
        ArbiterOptions options;
        options.cluster_cap_watts = 520.0;
        options.policy = policy;
        PowerArbiter arbiter(options);
        const auto decision =
            arbiter.arbitrate(cluster, {0.05, 0.01, 0.0, 0.02});
        double total = 0.0;
        for (const double watts : decision.budget_watts)
            total += watts;
        EXPECT_LE(total, options.cluster_cap_watts + 1e-9)
            << arbiterPolicyName(policy);
        // Nothing is thrown away either: the split is exhaustive.
        EXPECT_NEAR(total, options.cluster_cap_watts, 1e-9)
            << arbiterPolicyName(policy);
    }
}

TEST(PowerArbiter, UniformSplitsEqually)
{
    sim::Cluster cluster(4, sim::Machine::Config{});
    placeSome(cluster, {8, 0, 0, 0});
    PowerArbiter arbiter({800.0, ArbiterPolicy::Uniform, 0.5});
    const auto decision = arbiter.arbitrate(cluster, {});
    for (const double watts : decision.budget_watts)
        EXPECT_DOUBLE_EQ(watts, 200.0);
}

TEST(PowerArbiter, UtilizationProportionalFavorsLoadedMachines)
{
    sim::Cluster cluster(2, sim::Machine::Config{});
    placeSome(cluster, {6, 2});
    PowerArbiter arbiter(
        {400.0, ArbiterPolicy::UtilizationProportional, 0.5});
    const auto decision = arbiter.arbitrate(cluster, {});
    EXPECT_GT(decision.budget_watts[0], decision.budget_watts[1]);
}

TEST(PowerArbiter, QosFeedbackShiftsBudgetTowardLossyMachines)
{
    // Same occupancy on both machines; the one reporting more tenant
    // QoS loss gets the bigger slice.
    sim::Cluster cluster(2, sim::Machine::Config{});
    placeSome(cluster, {4, 4});
    PowerArbiter arbiter({380.0, ArbiterPolicy::QosFeedback, 0.5});
    const auto decision = arbiter.arbitrate(cluster, {0.08, 0.01});
    EXPECT_GT(decision.budget_watts[0], decision.budget_watts[1]);
    const double total =
        decision.budget_watts[0] + decision.budget_watts[1];
    EXPECT_NEAR(total, 380.0, 1e-9);
}

TEST(PowerArbiter, PstateCapMapsBudgetToFrequency)
{
    sim::Machine machine;
    const auto &model = machine.powerModel();
    // A budget covering peak power leaves the machine uncapped.
    EXPECT_EQ(PowerArbiter::pstateCapFor(machine,
                                         model.peakWatts() + 1.0, 1.0),
              0u);
    // A budget below even the slowest state's draw returns the
    // slowest state (duty-cycling covers the rest).
    EXPECT_EQ(PowerArbiter::pstateCapFor(machine,
                                         model.idleWatts() - 5.0, 1.0),
              machine.scale().states() - 1);
}

TEST(PowerArbiter, UncappedLeavesMachinesAtFullFrequency)
{
    sim::Cluster cluster(2, sim::Machine::Config{});
    cluster.machine(0).setPStateCap(3); // Stale cap from a prior epoch.
    PowerArbiter arbiter({0.0, ArbiterPolicy::QosFeedback, 0.5});
    const auto decision = arbiter.arbitrate(cluster, {});
    EXPECT_EQ(decision.pstate_cap[0], 0u);
    EXPECT_EQ(cluster.machine(0).pstate(), 0u);
    EXPECT_EQ(cluster.machine(0).pstateCap(), 0u);
    EXPECT_DOUBLE_EQ(decision.pause_ratio[0], 0.0);
}

TEST(PowerArbiter, TightBudgetInducesDutyCyclePauses)
{
    sim::Cluster cluster(1, sim::Machine::Config{});
    placeSome(cluster, {8});
    const double idle =
        cluster.machine(0).powerModel().idleWatts();
    // Between idle and the slowest state's loaded draw: the cap can
    // only be met on average by pausing tenants part of the time.
    PowerArbiter arbiter({idle + 10.0, ArbiterPolicy::Uniform, 0.5});
    const auto decision = arbiter.arbitrate(cluster, {});
    EXPECT_EQ(decision.pstate_cap[0],
              cluster.machine(0).scale().states() - 1);
    EXPECT_GT(decision.pause_ratio[0], 0.0);
}

/** Assert two clusters' machines hold the same DVFS and power state. */
void
expectSameMachineStates(const sim::Cluster &a, const sim::Cluster &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "machine " << i);
        const sim::Machine &x = a.machine(i);
        const sim::Machine &y = b.machine(i);
        EXPECT_EQ(x.pstate(), y.pstate());
        EXPECT_EQ(x.pstateCap(), y.pstateCap());
        EXPECT_EQ(x.frequencyHz(), y.frequencyHz());
        EXPECT_EQ(x.speedRatio(), y.speedRatio());
        EXPECT_EQ(x.utilization(), y.utilization());
    }
    EXPECT_EQ(a.dynamicWatts(), b.dynamicWatts());
}

TEST(PowerArbiter, InPlaceRoundEqualsAFreshArbitrateCall)
{
    // Two copies of one fleet take the same seeded rounds: one through
    // a fresh arbiter's arbitrate() call each round, after which every
    // machine's cap is installed again as the rounds used to (cap,
    // then P-state, on every machine); the other through one arbiter
    // writing into one reused decision, which leaves a machine that
    // already holds its cap alone. Decisions and every machine's
    // state must match after each round, across policies, caps (none;
    // below idle, so every machine pauses; one that pauses only the
    // busier machines; loose) and both fleet shapes, while occupancy
    // and QoS feedback move between rounds.
    const auto catalog = sim::MachineCatalog::bigLittle();
    for (const bool mixed : {false, true}) {
        for (const ArbiterPolicy policy :
             {ArbiterPolicy::Uniform, ArbiterPolicy::UtilizationProportional,
              ArbiterPolicy::QosFeedback}) {
            for (const double cap_per_machine :
                 {0.0, 60.0, 110.0, 150.0}) {
                SCOPED_TRACE(::testing::Message()
                             << "mixed=" << mixed << " policy="
                             << arbiterPolicyName(policy)
                             << " cap/machine=" << cap_per_machine);
                sim::Cluster fresh_cluster =
                    mixed ? sim::Cluster(catalog, {2, 3})
                          : sim::Cluster(5, sim::Machine::Config{});
                sim::Cluster reused_cluster = fresh_cluster;
                const ArbiterOptions options{
                    cap_per_machine * 5.0, policy, 0.5};
                PowerArbiter reused_arbiter(options);
                ArbitrationDecision reused;
                std::vector<double> qos;
                workload::Rng rng(7);
                for (std::size_t round = 0; round < 24; ++round) {
                    SCOPED_TRACE(::testing::Message() << "round " << round);
                    const std::size_t m = rng.below(5);
                    if (rng.below(3) == 0 &&
                        fresh_cluster.activeOn(m) > 0) {
                        fresh_cluster.release(m);
                        reused_cluster.release(m);
                    } else {
                        fresh_cluster.place(m);
                        reused_cluster.place(m);
                    }
                    if (round % 4 == 3)
                        qos.assign(5, 0.0);
                    if (!qos.empty())
                        qos[rng.below(5)] = rng.uniform(0.0, 0.2);

                    const ArbitrationDecision fresh =
                        PowerArbiter(options).arbitrate(fresh_cluster, qos);
                    for (std::size_t i = 0; i < fresh_cluster.size(); ++i) {
                        sim::Machine &machine = fresh_cluster.machine(i);
                        machine.setPStateCap(fresh.pstate_cap[i]);
                        machine.setPState(fresh.pstate_cap[i]);
                    }
                    reused_arbiter.arbitrate(reused_cluster, qos, reused);
                    EXPECT_EQ(fresh.budget_watts, reused.budget_watts);
                    EXPECT_EQ(fresh.pstate_cap, reused.pstate_cap);
                    EXPECT_EQ(fresh.pause_ratio, reused.pause_ratio);
                    expectSameMachineStates(fresh_cluster, reused_cluster);
                }
            }
        }
    }
}

TEST(PowerArbiter, RejectsBadFeedbackGain)
{
    EXPECT_THROW(PowerArbiter({100.0, ArbiterPolicy::QosFeedback, 1.5}),
                 std::invalid_argument);
}

TEST(PowerArbiter, RejectsNonFiniteOptionsAtConstruction)
{
    // Each row was accepted before construction validated it: a NaN
    // cap turned every budget into NaN and pinned every machine at
    // its slowest P-state, and a NaN gain slipped past the range
    // check.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Row
    {
        const char *what;
        ArbiterOptions options;
    };
    const Row rows[] = {
        {"NaN cap", {nan, ArbiterPolicy::Uniform, 0.5}},
        {"infinite cap", {inf, ArbiterPolicy::QosFeedback, 0.5}},
        {"negative infinite cap", {-inf, ArbiterPolicy::Uniform, 0.5}},
        {"NaN gain", {400.0, ArbiterPolicy::QosFeedback, nan}},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        try {
            PowerArbiter arbiter(row.options);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &error) {
            EXPECT_EQ(std::string(error.what()).rfind("PowerArbiter:", 0),
                      0u)
                << error.what();
        }
    }
    // The boundaries stay legal: a cap <= 0 means uncapped, and the
    // gain range is closed.
    EXPECT_NO_THROW(PowerArbiter({0.0, ArbiterPolicy::Uniform, 0.0}));
    EXPECT_NO_THROW(PowerArbiter({-1.0, ArbiterPolicy::Uniform, 1.0}));
}

// ---------------------------------------------------------------------
// The latency percentiles.
// ---------------------------------------------------------------------

TEST(LatencyPercentiles, PercentileNearestRank)
{
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileOf(sorted, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileOf(sorted, 95.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileOf(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf({}, 50.0), 0.0);
}

TEST(LatencyPercentiles, SelectionMatchesSortedPercentiles)
{
    // latencyPercentiles selects its three order statistics without
    // sorting; they must be percentileOf over the fully sorted values,
    // for every size from empty up and with heavy duplication.
    std::mt19937_64 rng(17);
    for (std::size_t n = 0; n < 300; ++n) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        std::uniform_int_distribution<int> level(0, 1 + n / 3);
        std::vector<double> values(n);
        for (double &v : values)
            v = 0.125 * level(rng) +
                (n % 2 == 0 ? 0.0 : 1e-3 * level(rng));
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        const LatencyPercentiles got = latencyPercentiles(values);
        EXPECT_EQ(got.p50, percentileOf(sorted, 50.0));
        EXPECT_EQ(got.p95, percentileOf(sorted, 95.0));
        EXPECT_EQ(got.p99, percentileOf(sorted, 99.0));
        // A permutation of the input: nothing lost or invented.
        std::sort(values.begin(), values.end());
        EXPECT_EQ(values, sorted);
    }
}

// ---------------------------------------------------------------------
// End-to-end serves.
// ---------------------------------------------------------------------

ServerOptions
serveOptions(std::size_t machines, double cap_watts,
             ArbiterPolicy policy, std::size_t threads)
{
    ServerOptions options;
    options.machines = machines;
    options.threads = threads;
    options.arbiter.cluster_cap_watts = cap_watts;
    options.arbiter.policy = policy;
    return options;
}

std::vector<std::size_t>
spikeArrivals(std::size_t peak)
{
    workload::LoadTraceParams trace_params;
    trace_params.steps = 12;
    trace_params.spike_probability = 0.2;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = static_cast<double>(peak);
    return workload::makePoissonArrivals(
        workload::makeLoadTrace(trace_params), arrival_params);
}

TEST(Server, ReportIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const auto arrivals = spikeArrivals(6);
    Server serial(p.app, p.table, p.model,
                  serveOptions(2, 350.0, ArbiterPolicy::QosFeedback, 1));
    Server pooled(p.app, p.table, p.model,
                  serveOptions(2, 350.0, ArbiterPolicy::QosFeedback, 4));
    expectReportsIdentical(serial.serve(arrivals),
                           pooled.serve(arrivals));
}

TEST(Server, ServesEveryArrivalAndAggregates)
{
    auto p = makePipeline();
    const std::vector<std::size_t> arrivals{3, 0, 5, 1};
    Server server(p.app, p.table, p.model,
                  serveOptions(2, 0.0, ArbiterPolicy::Uniform, 1));
    const auto report = server.serve(arrivals);
    EXPECT_EQ(report.total_jobs, 9u);
    EXPECT_EQ(report.jobs.size(), 9u);
    ASSERT_EQ(report.epochs.size(), 4u);
    EXPECT_EQ(report.epochs[0].arrivals, 3u);
    EXPECT_EQ(report.epochs[1].arrivals, 0u);
    EXPECT_GT(report.mean_watts, 0.0);
    EXPECT_GT(report.p95_latency_s, 0.0);
    EXPECT_GE(report.p95_latency_s, report.p50_latency_s);
    EXPECT_GE(report.p99_latency_s, report.p95_latency_s);
    // Tenants round-robin over the production inputs.
    EXPECT_EQ(report.tenants.size(),
              p.app.productionInputs().size());
}

TEST(Server, ConsolidatedFleetAbsorbsSpikeWithinQosEnvelope)
{
    // The paper's provisioning claim (section 3, 5.5): a consolidated
    // fleet rides a load spike by trading a little QoS instead of
    // adding machines. Baseline: enough machines that every job gets
    // a dedicated core. Consolidated: one machine, 4x oversubscribed
    // at the spike, uncapped. Dynamic knobs must hold per-job latency
    // near baseline while paying bounded calibrated QoS loss (ToyApp's
    // frontier tops out at 7% loss for an 8x speedup). 600-unit jobs
    // amortise each tenant's cold-start control transient (one
    // quantum at baseline knobs before the first re-plan).
    ToyApp::Config config;
    config.units = 600;
    auto p = makePipeline(config);
    const std::vector<std::size_t> arrivals{4, 4,  16, 16, 16, 16,
                                            16, 16, 4,  4,  4,  4};

    Server baseline(p.app, p.table, p.model,
                    serveOptions(4, 0.0, ArbiterPolicy::Uniform, 1));
    Server consolidated(
        p.app, p.table, p.model,
        serveOptions(1, 0.0, ArbiterPolicy::Uniform, 1));
    const auto base = baseline.serve(arrivals);
    const auto cons = consolidated.serve(arrivals);

    ASSERT_GT(base.total_jobs, 0u);
    EXPECT_EQ(base.total_jobs, cons.total_jobs);
    // The over-provisioned baseline serves everything at the
    // calibrated baseline latency with no QoS loss.
    EXPECT_NEAR(base.p95_latency_s, p.model.baselineSeconds(),
                0.01 * p.model.baselineSeconds());
    EXPECT_NEAR(base.mean_qos_loss, 0.0, 1e-6);
    // Latency envelope: the consolidated fleet holds p95 job latency
    // within 50% of baseline even while 4x oversubscribed (observed
    // ~1.26x; the slack above that is the cold-start transient).
    EXPECT_LE(cons.p95_latency_s, 1.5 * base.p95_latency_s);
    // The speedup came from somewhere: calibrated QoS loss is paid,
    // but stays within the response model's admissible range.
    EXPECT_GT(cons.mean_qos_loss, base.mean_qos_loss);
    EXPECT_LE(cons.mean_qos_loss, 0.07 + 1e-9);
    // And the headline: fewer machines, much less power (Figure 8).
    EXPECT_LT(cons.mean_watts, 0.5 * base.mean_watts);
}

TEST(Server, CallerGateComposesWithArbitrationPauses)
{
    // A user-supplied session gate must keep firing even on tenants
    // the arbiter duty-cycles (the server composes the two gates
    // rather than replacing one with the other).
    auto p = makePipeline();
    const double idle =
        sim::Machine().powerModel().idleWatts();
    // One machine, budget between idle and the slowest state's
    // loaded draw: every epoch needs pauses.
    ServerOptions options =
        serveOptions(1, idle + 10.0, ArbiterPolicy::Uniform, 1);
    auto calls = std::make_shared<std::size_t>(0);
    options.session.withGate(
        [calls](core::BeatGateContext &) { ++*calls; });
    Server server(p.app, p.table, p.model, options);
    const auto report = server.serve(std::vector<std::size_t>{2, 2});
    ASSERT_EQ(report.total_jobs, 4u);
    double max_pause = 0.0;
    for (const auto &epoch : report.epochs)
        max_pause = std::max(max_pause, epoch.max_pause_ratio);
    EXPECT_GT(max_pause, 0.0);
    // Every beat of every tenant saw the user gate.
    std::size_t beats = 0;
    for (const auto &job : report.jobs)
        beats += job.beats;
    EXPECT_EQ(*calls, beats);
}

// ---------------------------------------------------------------------
// Cross-epoch arbitration: leases reach in-flight tenants mid-run.
// ---------------------------------------------------------------------

/**
 * Per-beat snapshot of one tenant's machine, recorded by a caller
 * gate. The caller gate runs *before* the lease gate each beat, so a
 * snapshot shows the terms in force when the beat began; a lease
 * rewritten at an epoch boundary is therefore visible from the next
 * beat on.
 */
struct GateSnapshot
{
    const sim::Machine *machine;
    std::size_t beat;
    double now;
    double share;
    std::size_t pstate_cap;
};

core::BeatGate
snapshotGate(std::shared_ptr<std::vector<GateSnapshot>> log)
{
    return [log](core::BeatGateContext &ctx) {
        log->push_back({&ctx.machine, ctx.beat, ctx.machine.now(),
                        ctx.machine.share(), ctx.machine.pstateCap()});
    };
}

/** The snapshots of the machine that logged first (job 0). */
std::vector<GateSnapshot>
firstMachineTrace(const std::vector<GateSnapshot> &log)
{
    std::vector<GateSnapshot> trace;
    if (log.empty())
        return trace;
    const sim::Machine *machine = log.front().machine;
    for (const GateSnapshot &snap : log)
        if (snap.machine == machine)
            trace.push_back(snap);
    return trace;
}

TEST(Server, InFlightTenantAdoptsUpdatedShareWithinOneBeat)
{
    // One machine; a lone tenant arrives at epoch 0 with the machine
    // to itself, then 8 more tenants land at epoch 1. Epochs are a
    // quarter of the job duration, so the first tenant is mid-run
    // when the epoch-1 arbitration recomputes its core share — under
    // the frozen-lease model it would keep share 1.0 forever.
    auto p = makePipeline();
    ServerOptions options =
        serveOptions(1, 0.0, ArbiterPolicy::Uniform, 1);
    const double epoch_s = p.model.baselineSeconds() / 4.0;
    options.epoch_seconds = epoch_s;
    auto log = std::make_shared<std::vector<GateSnapshot>>();
    options.session.withGate(snapshotGate(log));
    Server server(p.app, p.table, p.model, options);

    std::vector<std::size_t> arrivals(10, 0);
    arrivals[0] = 1;
    arrivals[1] = 8;
    const auto report = server.serve(arrivals);
    ASSERT_EQ(report.total_jobs, 9u);

    const auto trace = firstMachineTrace(*log);
    ASSERT_GT(trace.size(), 2u);
    const std::size_t cores = sim::Machine().cores();
    const double crowded_share =
        static_cast<double>(cores) / static_cast<double>(cores + 1);

    // Alone in epoch 0: full share at every beat before the boundary.
    EXPECT_DOUBLE_EQ(trace.front().share, 1.0);
    for (const GateSnapshot &snap : trace) {
        if (snap.now < epoch_s) {
            EXPECT_DOUBLE_EQ(snap.share, 1.0)
                << "beat " << snap.beat;
        }
    }

    // The new share lands within one beat of the boundary: the first
    // beat at/after the boundary still began under the old lease, the
    // next one runs under the new terms.
    std::size_t boundary = trace.size();
    std::size_t adopted = trace.size();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (boundary == trace.size() && trace[i].now >= epoch_s)
            boundary = i;
        if (adopted == trace.size() && trace[i].share != 1.0)
            adopted = i;
    }
    ASSERT_LT(boundary, trace.size());
    ASSERT_LT(adopted, trace.size()) << "share never re-read mid-run";
    EXPECT_LE(adopted - boundary, 1u)
        << "lease adopted " << (adopted - boundary)
        << " beats after the epoch boundary";
    EXPECT_NEAR(trace[adopted].share, crowded_share, 1e-12);

    // The spanning tenant felt one lease rewrite per epoch it
    // crossed (its record is tagged with the count and generation).
    ASSERT_FALSE(report.jobs.empty());
    const JobRecord &job0 = report.jobs.front();
    EXPECT_EQ(job0.job, 0u);
    EXPECT_GE(job0.lease_updates, 3u);
    EXPECT_GE(job0.lease_generation, 3u);
}

TEST(Server, InFlightTenantAdoptsUpdatedArbiterCapMidRun)
{
    // Two machines under a tight cluster cap with the utilisation-
    // proportional split. A lone tenant starts at epoch 0 (lightly
    // loaded cluster: generous budget, no DVFS cap); at epoch 1 a
    // crowd arrives and the re-split shrinks every machine's budget,
    // capping the P-state. The in-flight tenant must adopt the new
    // cap mid-run: with frozen launch-time leases its run (and its
    // latency) would be identical with and without the crowd.
    auto p = makePipeline();
    const auto makeOptions = [&](std::shared_ptr<std::vector<
                                     GateSnapshot>> log) {
        ServerOptions options = serveOptions(
            2, 280.0, ArbiterPolicy::UtilizationProportional, 1);
        options.epoch_seconds = p.model.baselineSeconds() / 4.0;
        if (log != nullptr)
            options.session.withGate(snapshotGate(log));
        return options;
    };

    std::vector<std::size_t> calm(12, 0);
    calm[0] = 1;
    std::vector<std::size_t> crowded = calm;
    crowded[1] = 20;

    Server calm_server(p.app, p.table, p.model, makeOptions(nullptr));
    auto log = std::make_shared<std::vector<GateSnapshot>>();
    Server crowded_server(p.app, p.table, p.model, makeOptions(log));
    const auto calm_report = calm_server.serve(calm);
    const auto crowded_report = crowded_server.serve(crowded);

    const JobRecord &calm_job = calm_report.jobs.front();
    const JobRecord &crowded_job = crowded_report.jobs.front();
    ASSERT_EQ(calm_job.job, 0u);
    ASSERT_EQ(crowded_job.job, 0u);

    // Job 0 launched identically in both serves (same epoch-0 state),
    // so any difference can only have reached it *mid-run* through
    // the lease. The crowd's arrival slows it down.
    EXPECT_GT(crowded_job.latency_s, calm_job.latency_s);
    EXPECT_GE(crowded_job.lease_updates, 3u);

    // And the mechanism is visible on its machine: uncapped while
    // alone, a nonzero DVFS cap after the crowd arrives.
    const auto trace = firstMachineTrace(*log);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front().pstate_cap, 0u);
    bool saw_cap = false;
    for (const GateSnapshot &snap : trace) {
        if (snap.pstate_cap > 0) {
            saw_cap = true;
            EXPECT_GE(snap.now, crowded_server.options().epoch_seconds)
                << "capped before the epoch-1 arbitration";
        }
    }
    EXPECT_TRUE(saw_cap) << "arbiter cap never reached the tenant";
}

TEST(Server, CrossEpochServeIsBitIdenticalAcrossThreadCounts)
{
    // The persistent-tenant loop must stay deterministic when jobs
    // span many epochs and slices run on a pool: epochs are a third
    // of the job duration, so most tenants cross >= 3 boundaries.
    auto p = makePipeline();
    const auto arrivals = spikeArrivals(5);
    ServerOptions serial_options =
        serveOptions(2, 300.0, ArbiterPolicy::QosFeedback, 1);
    serial_options.epoch_seconds = p.model.baselineSeconds() / 3.0;
    serial_options.queue_depth = 12;
    ServerOptions pooled_options = serial_options;
    pooled_options.threads = 4;
    Server serial(p.app, p.table, p.model, serial_options);
    Server pooled(p.app, p.table, p.model, pooled_options);
    expectReportsIdentical(serial.serve(arrivals),
                           pooled.serve(arrivals));
}

TEST(Server, QueueDepthShedsAndCountsOverload)
{
    // One machine bounded at 4 in-flight jobs: a 6-job burst admits
    // 4 and sheds 2, and the shed count lands in the report.
    auto p = makePipeline();
    ServerOptions options =
        serveOptions(1, 0.0, ArbiterPolicy::Uniform, 1);
    options.queue_depth = 4;
    Server server(p.app, p.table, p.model, options);
    const auto report = server.serve(std::vector<std::size_t>{6, 0});
    EXPECT_EQ(report.total_jobs, 4u);
    EXPECT_EQ(report.total_shed, 2u);
    ASSERT_EQ(report.epochs.size(), 2u);
    EXPECT_EQ(report.epochs[0].arrivals, 4u);
    EXPECT_EQ(report.epochs[0].shed, 2u);
    EXPECT_EQ(report.jobs.size(), 4u);
    // The report carries the per-machine shed attribution too.
    EXPECT_EQ(report.shed_by_machine,
              (std::vector<std::size_t>{2}));
}

TEST(Server, TenantMachinesUseTheConfiguredMachineModel)
{
    // ServerOptions::machine must reach the per-tenant simulated
    // machines, not just the cluster's accounting: a single-core
    // host runs a lone tenant at full utilisation (1/1), the default
    // eight-core host at 1/8, so the recorded job energy differs.
    auto p = makePipeline();
    ServerOptions default_options =
        serveOptions(1, 0.0, ArbiterPolicy::Uniform, 1);
    ServerOptions small_options = default_options;
    small_options.machine.cores = 1;
    Server default_server(p.app, p.table, p.model, default_options);
    Server small_server(p.app, p.table, p.model, small_options);
    const auto default_report = default_server.serve(std::vector<std::size_t>{1});
    const auto small_report = small_server.serve(std::vector<std::size_t>{1});
    ASSERT_EQ(default_report.jobs.size(), 1u);
    ASSERT_EQ(small_report.jobs.size(), 1u);
    EXPECT_GT(small_report.jobs.front().energy_j,
              default_report.jobs.front().energy_j);
}

TEST(Server, PowerCapReducesFleetPower)
{
    // Long epochs (every job completes within its arrival epoch) keep
    // the occupancy identical between the capped and uncapped serves,
    // isolating the arbiter's effect on power.
    auto p = makePipeline();
    const std::vector<std::size_t> arrivals(8, 6);
    ServerOptions uncapped_options =
        serveOptions(2, 0.0, ArbiterPolicy::Uniform, 1);
    uncapped_options.epoch_seconds = 1.0;
    ServerOptions capped_options =
        serveOptions(2, 260.0, ArbiterPolicy::UtilizationProportional,
                     1);
    capped_options.epoch_seconds = 1.0;
    Server uncapped(p.app, p.table, p.model, uncapped_options);
    Server capped(p.app, p.table, p.model, capped_options);
    const auto base = uncapped.serve(arrivals);
    const auto shaved = capped.serve(arrivals);
    EXPECT_LT(shaved.mean_watts, base.mean_watts);
    // The per-epoch cluster power respects the cap whenever DVFS
    // alone could meet it (epochs that needed duty-cycle pauses meet
    // the cap on average, which the instantaneous stat can't show).
    for (const auto &epoch : shaved.epochs) {
        if (epoch.max_pause_ratio == 0.0) {
            EXPECT_LE(epoch.watts, 260.0 + 1e-9);
        }
    }
}

} // namespace
} // namespace powerdial::fleet

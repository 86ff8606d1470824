/**
 * @file
 * Admission-control seam tests.
 *
 * Three pins, mirroring the seam's contract (fleet/admission.h):
 *
 *   1. *Compatibility*: routing admission through an explicit
 *      QueueDepthAdmission is bit-identical to the Scheduler's default
 *      across the seeded scenario sweep, on both engines and at both
 *      thread counts — the seam itself changes nothing.
 *   2. *Overflow follows the policy*: when the placement policy's pick
 *      is at the queue-depth bound, overflow re-asks the policy
 *      restricted to machines with room instead of silently reverting
 *      to least-loaded (the PR's bug fix), pinned by a scenario where
 *      the two rules demonstrably diverge.
 *   3. *Predictive properties*: the SLO-aware policy never sheds when
 *      every deadline is feasible, sheds the lowest-priority class
 *      first under overload, degenerates to queue-depth behaviour for
 *      deadline-free traffic, and stays bit-identical across engines
 *      and thread counts (the margin feedback is replay-safe).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/server.h"
#include "fleet_scenarios.h"
#include "workload/traffic_mix.h"

namespace powerdial::fleet {
namespace {

using tests::FleetScenario;
using tests::expectReportsIdentical;
using tests::makeFleetScenario;
using tests::makePipeline;

FleetReport
serveScenario(const tests::Pipeline &p, const FleetScenario &scenario,
              EngineMode engine, std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.threads = threads;
    Server server(p.app, p.table, p.model, options);
    return server.serve(scenario.arrivals);
}

// ---------------------------------------------------------------------
// 1. The seam is invisible: explicit QueueDepthAdmission == default.
// ---------------------------------------------------------------------

TEST(AdmissionSeam, ExplicitQueueDepthMatchesDefaultAcrossSweep)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "reproduce with makeFleetScenario(seed="
                     << seed << ")");
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        FleetScenario explicit_policy = scenario;
        explicit_policy.options.admission = makeQueueDepthAdmission();

        const FleetReport base =
            serveScenario(p, scenario, EngineMode::Epoch);
        expectReportsIdentical(
            base, serveScenario(p, explicit_policy, EngineMode::Epoch));
        expectReportsIdentical(
            base, serveScenario(p, explicit_policy, EngineMode::Epoch, 4));
        const FleetReport event_base =
            serveScenario(p, scenario, EngineMode::Event);
        expectReportsIdentical(
            event_base,
            serveScenario(p, explicit_policy, EngineMode::Event));
        expectReportsIdentical(
            event_base,
            serveScenario(p, explicit_policy, EngineMode::Event, 4));
        if (::testing::Test::HasFailure())
            break; // One seed's full diff is enough output.
    }
}

// ---------------------------------------------------------------------
// 2. Overflow keeps following the placement policy's criterion.
// ---------------------------------------------------------------------

TEST(Scheduler, OverflowFollowsThePolicyCriterionNotLeastLoaded)
{
    // Three 2-core machines, queue depth 4. Machine 0 is saturated
    // (util 1.0, so its marginal watt cost is zero) AND at the bound;
    // machine 2 is also saturated (marginal cost zero) but has room;
    // machine 1 is empty (least loaded, but its first instance costs
    // real watts). The power-aware pick is machine 0 (zero cost,
    // lowest index) — full, so admission overflows. The historical
    // rule would revert to least-loaded and choose machine 1; the
    // policy's own criterion among machines with room chooses 2.
    sim::Machine::Config config;
    config.cores = 2;
    sim::Cluster cluster(3, config);
    Scheduler scheduler(
        cluster,
        SchedulerOptions{makePowerAwarePlacement(), 4, {}, nullptr});
    for (int i = 0; i < 4; ++i)
        cluster.place(0);
    cluster.place(2);
    cluster.place(2);

    const auto machine = scheduler.tryAdmit();
    ASSERT_TRUE(machine.has_value());
    EXPECT_EQ(*machine, 2u);
    EXPECT_EQ(scheduler.shedCount(), 0u);

    // The default rule is unchanged where no candidate is cheaper:
    // least-loaded-among picks the emptier machine 1.
    EXPECT_EQ(scheduler.policy().name(), "power-aware");
    sim::Cluster fresh(3, config);
    Scheduler least(fresh, SchedulerOptions{nullptr, 4, {}, nullptr});
    for (int i = 0; i < 4; ++i)
        fresh.place(0);
    fresh.place(2);
    fresh.place(2);
    const auto fallback = least.tryAdmit();
    ASSERT_TRUE(fallback.has_value());
    EXPECT_EQ(*fallback, 1u);
}

// ---------------------------------------------------------------------
// 3. Predictive-policy properties.
// ---------------------------------------------------------------------

TEST(PredictiveAdmission, NeverShedsWhenEveryDeadlineIsFeasible)
{
    // Two 8-core machines, depth 16: occupancy can at most double the
    // per-instance runtime, well within the response model's catch-up
    // range, and every deadline is far beyond the baseline. The
    // predictive policy must admit everything the cluster has room
    // for — SLO shedding only fires on *predicted violations*.
    auto p = makePipeline();
    sim::Cluster cluster(2, {});
    Scheduler scheduler(
        cluster, SchedulerOptions{nullptr, 16,
                                  makePredictiveAdmission(), &p.model});
    EXPECT_EQ(scheduler.admissionPolicy().name(), "predictive-slo");

    const double loose = p.model.baselineSeconds() * 1e6;
    for (std::size_t i = 0; i < 32; ++i) {
        const auto admission =
            scheduler.tryAdmit(OfferedJob{0, i % 3, loose});
        ASSERT_TRUE(admission.has_value()) << "job " << i;
        EXPECT_GT(admission->predicted_s, 0.0);
    }
    EXPECT_EQ(scheduler.shedCount(), 0u);

    // The 33rd arrival is a *capacity* shed (no machine with room),
    // exactly as under queue-depth admission.
    EXPECT_FALSE(scheduler.tryAdmit(OfferedJob{0, 0, loose}));
    EXPECT_EQ(scheduler.shedCount(), 1u);
}

TEST(PredictiveAdmission, ShedsLowestPriorityClassFirstUnderOverload)
{
    // One single-core machine with a deep queue: each admission
    // shrinks every instance's core share, so predicted latency climbs
    // monotonically with occupancy. All three classes share one
    // deadline; the class-headroom scaling means class 2 crosses its
    // (scaled) threshold at a lower occupancy than class 1, and class
    // 1 before class 0 — so sheds must concentrate in the tail.
    auto p = makePipeline();
    sim::Machine::Config config;
    config.cores = 1;
    sim::Cluster cluster(1, config);
    Scheduler scheduler(
        cluster, SchedulerOptions{nullptr, 32,
                                  makePredictiveAdmission(), &p.model});

    const double deadline = p.model.baselineSeconds() * 2.0;
    for (std::size_t i = 0; i < 60; ++i)
        scheduler.tryAdmit(OfferedJob{0, i % 3, deadline});

    const auto &shed = scheduler.shedByClass();
    ASSERT_EQ(shed.size(), 3u);
    EXPECT_GT(shed[0], 0u); // Even the top class sheds eventually...
    EXPECT_GT(shed[1], shed[0]); // ...but strictly later...
    EXPECT_GT(shed[2], shed[1]); // ...and the tail class first of all.
    EXPECT_GT(cluster.activeOn(0), 0u);
    EXPECT_LT(cluster.activeOn(0), 32u) << "SLO sheds, not capacity";
    EXPECT_EQ(shed[0] + shed[1] + shed[2] + cluster.activeOn(0), 60u);
}

TEST(PredictiveAdmission, DeadlineFreeTrafficReproducesQueueDepth)
{
    // Legacy count-based traffic carries deadline 0 (= no SLO), so the
    // predictive policy must shed exactly when queue-depth admission
    // does; only the per-job predictions differ (predictive records
    // one, queue-depth records 0).
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());
    scenario.options.machines = 1;
    scenario.options.queue_depth = 3;
    scenario.arrivals = {6, 6, 0, 6, 1, 0, 0};

    FleetScenario predictive = scenario;
    predictive.options.admission = makePredictiveAdmission();

    const FleetReport blind =
        serveScenario(p, scenario, EngineMode::Epoch);
    const FleetReport slo =
        serveScenario(p, predictive, EngineMode::Epoch);

    ASSERT_GT(blind.total_shed, 0u);
    EXPECT_EQ(blind.total_shed, slo.total_shed);
    EXPECT_EQ(blind.shed_by_machine, slo.shed_by_machine);
    EXPECT_EQ(blind.shed_by_class, slo.shed_by_class);
    ASSERT_EQ(blind.jobs.size(), slo.jobs.size());
    for (std::size_t i = 0; i < blind.jobs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "job " << i);
        EXPECT_EQ(blind.jobs[i].machine, slo.jobs[i].machine);
        EXPECT_EQ(blind.jobs[i].tenant, slo.jobs[i].tenant);
        EXPECT_EQ(blind.jobs[i].epoch, slo.jobs[i].epoch);
        EXPECT_EQ(blind.jobs[i].latency_s, slo.jobs[i].latency_s);
        EXPECT_EQ(blind.jobs[i].predicted_s, 0.0);
        EXPECT_GT(slo.jobs[i].predicted_s, 0.0);
    }
}

/** A flash-crowd TrafficMix schedule over the pipeline's inputs. */
std::vector<std::vector<workload::OfferedJob>>
makeOverloadSchedule(const tests::Pipeline &p)
{
    const auto inputs = p.app.productionInputs();
    std::vector<workload::TenantProfile> profiles;
    for (std::size_t rank = 0; rank < inputs.size(); ++rank)
        profiles.push_back({inputs[rank % inputs.size()], rank % 3,
                            p.model.baselineSeconds() *
                                (2.0 + static_cast<double>(rank))});
    workload::TrafficMixParams params;
    params.steps = 24;
    params.trace.base_utilization = 0.5;
    params.trace.seed = 11;
    params.flash_crowds = {{8, 6, 0.9}};
    params.peak_rate = 5.0;
    params.seed = 12;
    return workload::makeTrafficMix(params, profiles).offers;
}

TEST(PredictiveAdmission, BitIdenticalAcrossThreadsAndEngines)
{
    // The margin feedback (noteCompletion) and lease context
    // (noteArbitration) are fed serially in virtual-time order by both
    // engines, so an SLO-aware serve over a flash-crowd schedule must
    // replay bit-identically at any thread count on either engine.
    auto p = makePipeline();
    const auto offers = makeOverloadSchedule(p);

    ServerOptions options;
    options.machines = 2;
    options.queue_depth = 4;
    options.epoch_seconds = p.model.baselineSeconds() * 0.5;
    options.admission = makePredictiveAdmission();
    options.arbiter.cluster_cap_watts = 130.0;

    auto serve = [&](EngineMode engine, std::size_t threads) {
        ServerOptions o = options;
        o.engine = engine;
        o.threads = threads;
        Server server(p.app, p.table, p.model, o);
        return server.serve(offers);
    };

    for (const EngineMode engine : {EngineMode::Epoch, EngineMode::Event}) {
        SCOPED_TRACE(::testing::Message()
                     << "engine="
                     << (engine == EngineMode::Epoch ? "epoch" : "event"));
        const FleetReport base = serve(engine, 1);
        ASSERT_GT(base.total_jobs, 0u);
        ASSERT_GT(base.total_shed, 0u) << "flash crowd must overload";
        expectReportsIdentical(base, serve(engine, 4));
    }
}

} // namespace
} // namespace powerdial::fleet

/**
 * @file
 * Shared scenario machinery for the fleet engine tests.
 *
 * The differential harness (test_fleet_event_engine.cc) and the fleet
 * subsystem tests (test_fleet.cc) must agree on three things: how a
 * test pipeline is built, what "identical FleetReports" means (every
 * field, not a summary hash), and how a seeded scenario maps to server
 * options + an arrival trace. Keeping all three here means a
 * differential failure in one suite is reproducible from its seed in
 * the other.
 */
#ifndef POWERDIAL_TESTS_FLEET_SCENARIOS_H
#define POWERDIAL_TESTS_FLEET_SCENARIOS_H

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "core/identify.h"
#include "fleet/server.h"
#include "toy_app.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/rng.h"

namespace powerdial::fleet::tests {

struct Pipeline
{
    powerdial::tests::ToyApp app;
    core::KnobTable table;
    core::ResponseModel model;
};

inline Pipeline
makePipeline(const powerdial::tests::ToyApp::Config &config = {})
{
    Pipeline p{powerdial::tests::ToyApp(config), {}, {}};
    auto ident = core::identifyKnobs(p.app);
    EXPECT_TRUE(ident.analysis.accepted);
    p.table = std::move(ident.table);
    p.model = core::calibrate(p.app, p.app.trainingInputs()).model;
    return p;
}

/** Assert two job records are identical field for field (exact). */
inline void
expectJobRecordsIdentical(const JobRecord &a, const JobRecord &b)
{
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.job_class, b.job_class);
    EXPECT_EQ(a.deadline_s, b.deadline_s);
    EXPECT_EQ(a.predicted_s, b.predicted_s);
    EXPECT_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.mean_rate, b.mean_rate);
    EXPECT_EQ(a.qos_loss, b.qos_loss);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.beats, b.beats);
    EXPECT_EQ(a.lease_generation, b.lease_generation);
    EXPECT_EQ(a.lease_updates, b.lease_updates);
    EXPECT_EQ(a.service_s, b.service_s);
    EXPECT_EQ(a.queue_share_s, b.queue_share_s);
    EXPECT_EQ(a.class_deficit_s, b.class_deficit_s);
    EXPECT_EQ(a.pause_s, b.pause_s);
}

/**
 * Assert two FleetReports are identical field for field — exact
 * (bit-level) equality on every double, no tolerances. Wrap calls in
 * SCOPED_TRACE with the scenario seed so a differential failure
 * prints its reproducer.
 */
inline void
expectReportsIdentical(const FleetReport &a, const FleetReport &b)
{
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        SCOPED_TRACE(::testing::Message() << "epoch row " << e);
        EXPECT_EQ(a.epochs[e].epoch, b.epochs[e].epoch);
        EXPECT_EQ(a.epochs[e].arrivals, b.epochs[e].arrivals);
        EXPECT_EQ(a.epochs[e].shed, b.epochs[e].shed);
        EXPECT_EQ(a.epochs[e].completed, b.epochs[e].completed);
        EXPECT_EQ(a.epochs[e].active, b.epochs[e].active);
        EXPECT_EQ(a.epochs[e].lease_generation,
                  b.epochs[e].lease_generation);
        EXPECT_EQ(a.epochs[e].watts, b.epochs[e].watts);
        EXPECT_EQ(a.epochs[e].fleet_rate, b.epochs[e].fleet_rate);
        EXPECT_EQ(a.epochs[e].mean_qos_loss,
                  b.epochs[e].mean_qos_loss);
        EXPECT_EQ(a.epochs[e].max_pause_ratio,
                  b.epochs[e].max_pause_ratio);
    }
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "job " << i);
        expectJobRecordsIdentical(a.jobs[i], b.jobs[i]);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "tenant " << i);
        EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
        EXPECT_EQ(a.tenants[i].jobs, b.tenants[i].jobs);
        EXPECT_EQ(a.tenants[i].mean_qos_loss,
                  b.tenants[i].mean_qos_loss);
        EXPECT_EQ(a.tenants[i].mean_latency_s,
                  b.tenants[i].mean_latency_s);
        EXPECT_EQ(a.tenants[i].p50_latency_s,
                  b.tenants[i].p50_latency_s);
        EXPECT_EQ(a.tenants[i].p95_latency_s,
                  b.tenants[i].p95_latency_s);
        EXPECT_EQ(a.tenants[i].p99_latency_s,
                  b.tenants[i].p99_latency_s);
    }
    ASSERT_EQ(a.machines.size(), b.machines.size());
    for (std::size_t i = 0; i < a.machines.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "machine row " << i);
        EXPECT_EQ(a.machines[i].machine, b.machines[i].machine);
        EXPECT_EQ(a.machines[i].machine_class,
                  b.machines[i].machine_class);
        EXPECT_EQ(a.machines[i].jobs, b.machines[i].jobs);
        EXPECT_EQ(a.machines[i].shed, b.machines[i].shed);
        EXPECT_EQ(a.machines[i].p50_latency_s,
                  b.machines[i].p50_latency_s);
        EXPECT_EQ(a.machines[i].p95_latency_s,
                  b.machines[i].p95_latency_s);
        EXPECT_EQ(a.machines[i].p99_latency_s,
                  b.machines[i].p99_latency_s);
    }
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "class row " << i);
        EXPECT_EQ(a.classes[i].job_class, b.classes[i].job_class);
        EXPECT_EQ(a.classes[i].jobs, b.classes[i].jobs);
        EXPECT_EQ(a.classes[i].shed, b.classes[i].shed);
        EXPECT_EQ(a.classes[i].p50_latency_s,
                  b.classes[i].p50_latency_s);
        EXPECT_EQ(a.classes[i].p95_latency_s,
                  b.classes[i].p95_latency_s);
        EXPECT_EQ(a.classes[i].p99_latency_s,
                  b.classes[i].p99_latency_s);
    }
    EXPECT_EQ(a.total_jobs, b.total_jobs);
    EXPECT_EQ(a.total_shed, b.total_shed);
    EXPECT_EQ(a.drained_jobs, b.drained_jobs);
    EXPECT_EQ(a.shed_by_machine, b.shed_by_machine);
    EXPECT_EQ(a.shed_by_class, b.shed_by_class);
    EXPECT_EQ(a.mean_watts, b.mean_watts);
    EXPECT_EQ(a.mean_fleet_rate, b.mean_fleet_rate);
    EXPECT_EQ(a.mean_qos_loss, b.mean_qos_loss);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
}

/** One seeded differential scenario: options + an arrival trace. */
struct FleetScenario
{
    ServerOptions options; //!< engine = Epoch; callers flip the mode.
    std::vector<std::size_t> arrivals;
};

/**
 * Deterministically derive a scenario from @p seed, varying machine
 * count, tenant mix, Poisson arrival rate, queue depth, epoch
 * fraction, placement, and all three arbiter policies.
 *
 * @param baseline_s        The pipeline's calibrated baseline job
 *                          duration (epoch lengths scale off it).
 * @param production_inputs The app's production input indices (the
 *                          tenant mix draws a rotation of them).
 */
inline FleetScenario
makeFleetScenario(std::uint64_t seed, double baseline_s,
                  const std::vector<std::size_t> &production_inputs)
{
    workload::Rng rng(seed);
    FleetScenario scenario;
    ServerOptions &o = scenario.options;

    o.machines = 1 + static_cast<std::size_t>(rng.below(4));
    o.threads = 1;

    // Epoch fraction: jobs span several epochs for small fractions.
    const double epoch_fracs[] = {0.3, 0.5, 1.0, 1.6};
    o.epoch_seconds = baseline_s * epoch_fracs[rng.below(4)];

    const ArbiterPolicy policies[] = {
        ArbiterPolicy::Uniform, ArbiterPolicy::UtilizationProportional,
        ArbiterPolicy::QosFeedback};
    o.arbiter.policy = policies[rng.below(3)];
    // Cap: uncapped, or tight enough to force DVFS caps (and
    // sometimes duty-cycle pauses) but never below idle power, where
    // no pause ratio could meet the budget.
    const sim::Machine probe_machine(o.machine);
    const double idle = probe_machine.powerModel().idleWatts();
    const double peak = probe_machine.powerModel().peakWatts();
    if (rng.below(2) == 0)
        o.arbiter.cluster_cap_watts =
            static_cast<double>(o.machines) *
            rng.uniform(idle + 15.0, 1.1 * peak);

    o.placement = rng.below(2) == 0 ? makeLeastLoadedPlacement()
                                    : makePowerAwarePlacement();
    if (rng.below(2) == 0)
        o.queue_depth = 2 + static_cast<std::size_t>(rng.below(10));

    // Tenant mix: a rotation of the production inputs, sometimes a
    // strict subset.
    const std::size_t count = 1 +
        static_cast<std::size_t>(
            rng.below(production_inputs.size()));
    const std::size_t offset = static_cast<std::size_t>(
        rng.below(production_inputs.size()));
    for (std::size_t i = 0; i < count; ++i)
        o.tenants.push_back(
            production_inputs[(offset + i) %
                              production_inputs.size()]);

    // Arrivals: Poisson over a spiky utilisation trace.
    workload::LoadTraceParams trace;
    trace.steps = 8 + static_cast<std::size_t>(rng.below(10));
    trace.seed = seed + 1;
    trace.spike_probability = 0.15;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = 1.0 + rng.uniform(0.0, 5.0);
    arrival_params.seed = seed + 2;
    scenario.arrivals = workload::makePoissonArrivals(
        workload::makeLoadTrace(trace), arrival_params);
    return scenario;
}

} // namespace powerdial::fleet::tests

#endif // POWERDIAL_TESTS_FLEET_SCENARIOS_H

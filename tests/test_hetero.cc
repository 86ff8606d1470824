/**
 * @file
 * Tests for the heterogeneity subsystem: machine catalogs, mixed-fleet
 * clusters, class-aware placement/arbitration/admission, and the
 * bit-identity guarantee for homogeneous catalogs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "fleet/admission.h"
#include "fleet/scheduler.h"
#include "fleet/server.h"
#include "fleet_scenarios.h"
#include "sim/cluster.h"
#include "sim/machine_catalog.h"

namespace powerdial::fleet {
namespace {

using tests::admitJob;
using tests::FleetScenario;
using tests::expectReportsIdentical;
using tests::makeFleetScenario;
using tests::makePipeline;

// ---------------------------------------------------------------------
// Catalog and machine units.
// ---------------------------------------------------------------------

TEST(MachineCatalog, Validation)
{
    EXPECT_THROW(
        sim::MachineCatalog(std::vector<sim::MachineClass>{}),
        std::invalid_argument);

    sim::Machine::Config config;
    EXPECT_THROW(
        sim::MachineCatalog({{"a", config}, {"a", config}}),
        std::invalid_argument);

    sim::Machine::Config zero_speed = config;
    zero_speed.speed_factor = 0.0;
    EXPECT_THROW(sim::MachineCatalog({{"a", zero_speed}}),
                 std::invalid_argument);

    const auto catalog = sim::MachineCatalog::bigLittle();
    EXPECT_EQ(catalog.indexOf("big"), 0u);
    EXPECT_EQ(catalog.indexOf("little"), 1u);
    EXPECT_THROW(catalog.indexOf("absent"), std::invalid_argument);
}

TEST(MachineCatalog, RejectsNonFiniteSpeedFactor)
{
    // Both rows pass a `speed_factor <= 0` check.
    for (const double speed : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(speed);
        sim::Machine::Config config;
        config.speed_factor = speed;
        EXPECT_THROW(sim::MachineCatalog({{"a", config}}),
                     std::invalid_argument);
    }
}

TEST(MachineCatalog, BigLittleShape)
{
    const auto catalog = sim::MachineCatalog::bigLittle();
    ASSERT_EQ(catalog.size(), 2u);
    const auto &big = catalog.at(0);
    const auto &little = catalog.at(1);
    EXPECT_EQ(big.name, "big");
    EXPECT_EQ(little.name, "little");
    EXPECT_DOUBLE_EQ(big.config.speed_factor, 1.0);
    EXPECT_DOUBLE_EQ(little.config.speed_factor, 0.6);
    EXPECT_LT(little.config.cores, big.config.cores);

    // The reference speed is the big class's top effective rate: the
    // little class is slower in clock and in per-cycle throughput.
    const sim::Machine big_machine(big.config);
    const sim::Machine little_machine(little.config);
    EXPECT_DOUBLE_EQ(catalog.referenceEffectiveHz(),
                     big_machine.effectiveHz());
    EXPECT_LT(little_machine.effectiveHz(), big_machine.effectiveHz());
}

TEST(Machine, SpeedFactorStretchesVirtualTime)
{
    sim::Machine::Config fast_config;
    sim::Machine::Config slow_config = fast_config;
    slow_config.speed_factor = 0.5;

    sim::Machine fast(fast_config);
    sim::Machine slow(slow_config);
    const double cycles = 4.8e9;
    // Half the per-cycle throughput means exactly twice the virtual
    // seconds for the same work (an IEEE-exact ratio).
    EXPECT_DOUBLE_EQ(slow.execute(cycles), 2.0 * fast.execute(cycles));

    sim::Machine::Config bad = fast_config;
    bad.speed_factor = 0.0;
    EXPECT_THROW(sim::Machine{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// Heterogeneous cluster provisioning.
// ---------------------------------------------------------------------

TEST(HeteroCluster, ProvisionsClassMixInClassOrder)
{
    const auto catalog = sim::MachineCatalog::bigLittle();
    sim::Cluster cluster(catalog, {1, 2});
    ASSERT_EQ(cluster.size(), 3u);
    EXPECT_EQ(cluster.classOf(0), 0u);
    EXPECT_EQ(cluster.classOf(1), 1u);
    EXPECT_EQ(cluster.classOf(2), 1u);
    EXPECT_EQ(cluster.coresOf(0), catalog.at(0).config.cores);
    EXPECT_EQ(cluster.coresOf(1), catalog.at(1).config.cores);
    EXPECT_TRUE(cluster.heterogeneous());
    EXPECT_EQ(cluster.totalCores(),
              catalog.at(0).config.cores +
                  2 * catalog.at(1).config.cores);
    EXPECT_DOUBLE_EQ(cluster.referenceEffectiveHz(),
                     catalog.referenceEffectiveHz());

    // A one-class mix is not heterogeneous, even through the catalog.
    sim::Cluster littles_only(catalog, {0, 2});
    EXPECT_EQ(littles_only.size(), 2u);
    EXPECT_FALSE(littles_only.heterogeneous());

    EXPECT_THROW(sim::Cluster(catalog, {1}), std::invalid_argument);
    EXPECT_THROW(sim::Cluster(catalog, {0, 0}), std::invalid_argument);
}

TEST(HeteroCluster, PerMachineLoadUsesClassCores)
{
    const auto catalog = sim::MachineCatalog::bigLittle();
    sim::Cluster cluster(catalog, {1, 1});
    const std::size_t big_cores = catalog.at(0).config.cores;

    // Big machine at its core count: every instance gets a full core.
    const auto big_load = cluster.loadOf(0, big_cores);
    EXPECT_DOUBLE_EQ(big_load.per_instance_share, 1.0);
    // The little machine has fewer cores, so the same instance count
    // oversubscribes it.
    const auto little_load = cluster.loadOf(1, big_cores);
    EXPECT_LT(little_load.per_instance_share, 1.0);
    EXPECT_GT(little_load.required_speedup, 1.0);
}

TEST(HeteroCluster, TwoArgLoadMatchesOneArgOnHomogeneous)
{
    sim::Cluster cluster(3, sim::Machine::Config{});
    for (std::size_t n = 0; n <= 12; ++n) {
        const auto a = cluster.loadOf(n);
        for (std::size_t m = 0; m < cluster.size(); ++m) {
            const auto b = cluster.loadOf(m, n);
            EXPECT_EQ(a.instances, b.instances);
            EXPECT_EQ(a.utilization, b.utilization);
            EXPECT_EQ(a.per_instance_share, b.per_instance_share);
            EXPECT_EQ(a.required_speedup, b.required_speedup);
        }
    }
}

// ---------------------------------------------------------------------
// Power arbitration on mixed fleets.
// ---------------------------------------------------------------------

TEST(HeteroArbiter, BudgetsSumToCapWithPerClassFloors)
{
    const auto catalog = sim::MachineCatalog::bigLittle();
    sim::Cluster cluster(catalog, {1, 2});
    cluster.place(0);
    cluster.place(0);
    cluster.place(1);

    double floor_sum = 0.0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
        floor_sum += cluster.machine(i).powerModel().idleWatts();

    ArbiterOptions options;
    options.policy = ArbiterPolicy::UtilizationProportional;
    options.cluster_cap_watts = floor_sum + 90.0;
    PowerArbiter arbiter(options);
    const auto decision = arbiter.arbitrate(cluster, {});

    ASSERT_EQ(decision.budget_watts.size(), cluster.size());
    const double sum =
        std::accumulate(decision.budget_watts.begin(),
                        decision.budget_watts.end(), 0.0);
    EXPECT_NEAR(sum, options.cluster_cap_watts,
                1e-9 * options.cluster_cap_watts);
    // Every machine keeps at least its own class's idle floor; the
    // idle little machine gets no share of the dynamic headroom.
    for (std::size_t i = 0; i < cluster.size(); ++i)
        EXPECT_GE(decision.budget_watts[i],
                  cluster.machine(i).powerModel().idleWatts() - 1e-9);
    EXPECT_NEAR(decision.budget_watts[2],
                cluster.machine(2).powerModel().idleWatts(), 1e-9);
    EXPECT_GT(decision.budget_watts[0], decision.budget_watts[2]);
}

TEST(HeteroArbiter, QosFeedbackConservesTheCap)
{
    const auto catalog = sim::MachineCatalog::bigLittle();
    sim::Cluster cluster(catalog, {2, 2});
    for (std::size_t i = 0; i < cluster.size(); ++i)
        cluster.place(i);

    ArbiterOptions options;
    options.policy = ArbiterPolicy::QosFeedback;
    options.cluster_cap_watts = 500.0;
    PowerArbiter arbiter(options);
    const auto decision =
        arbiter.arbitrate(cluster, {0.02, 0.0, 0.3, 0.1});
    const double sum =
        std::accumulate(decision.budget_watts.begin(),
                        decision.budget_watts.end(), 0.0);
    EXPECT_NEAR(sum, options.cluster_cap_watts, 1e-9 * sum);
    for (const double b : decision.budget_watts)
        EXPECT_GT(b, 0.0);
}

/** PowerArbiter::pstateCapFor as it read the power model before
 *  machines tabulated it, verbatim. */
std::size_t
referenceCapFor(const sim::Machine &machine, double budget_watts,
                double utilization)
{
    const auto &model = machine.powerModel();
    const std::size_t states = machine.scale().states();
    for (std::size_t s = 0; s < states; ++s) {
        const double watts =
            model.watts(machine.scale().frequencyHz(s), utilization);
        if (watts <= budget_watts)
            return s;
    }
    return states - 1;
}

TEST(HeteroArbiter, CapsPausesAndFleetPowerMatchThePowerModel)
{
    // The arbiter and the cluster read each machine's per-P-state
    // table; every cap, pause ratio and fleet power sum must be exactly
    // what PowerModel::watts gives, for every catalog class.
    const auto catalog = sim::MachineCatalog::bigLittle();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < catalog.size(); ++c) {
        const sim::Machine machine(catalog.at(c).config);
        const auto &model = machine.powerModel();
        for (const double u : {-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, nan}) {
            for (std::size_t s = 0; s < machine.scale().states(); ++s) {
                // Budgets on, just below and just above each draw.
                const double w =
                    model.watts(machine.scale().frequencyHz(s), u);
                for (const double budget :
                     {w, std::nextafter(w, -inf), std::nextafter(w, inf),
                      model.idleWatts() - 1.0, model.peakWatts() + 1.0}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "class " << c << " u " << u
                                 << " budget " << budget);
                    EXPECT_EQ(
                        PowerArbiter::pstateCapFor(machine, budget, u),
                        referenceCapFor(machine, budget, u));
                }
            }
        }
    }

    sim::Cluster cluster(catalog, {2, 2});
    for (const std::size_t i : {0u, 0u, 0u, 1u, 2u, 2u, 2u, 2u, 2u})
        cluster.place(i);
    for (const double cap : {150.0, 280.0, 320.0, 400.0, 600.0}) {
        SCOPED_TRACE(::testing::Message() << "cap " << cap);
        PowerArbiter arbiter(
            {cap, ArbiterPolicy::UtilizationProportional, 0.5});
        const auto decision = arbiter.arbitrate(cluster, {});
        double fleet_watts = 0.0;
        for (std::size_t i = 0; i < cluster.size(); ++i) {
            const sim::Machine &m = cluster.machine(i);
            const double budget = decision.budget_watts[i];
            const double util =
                cluster.loadOf(i, cluster.activeOn(i)).utilization;
            const std::size_t state = referenceCapFor(m, budget, util);
            EXPECT_EQ(decision.pstate_cap[i], state);
            const double busy =
                m.powerModel().watts(m.scale().frequencyHz(state), util);
            const double idle = m.powerModel().idleWatts();
            const double ratio = busy > budget
                ? std::clamp(budget > idle
                                 ? (busy - budget) / (budget - idle)
                                 : 10.0,
                             0.0, 10.0)
                : 0.0;
            EXPECT_EQ(decision.pause_ratio[i], ratio);
            fleet_watts +=
                m.powerModel().watts(m.frequencyHz(), util);
        }
        EXPECT_EQ(cluster.dynamicWatts(), fleet_watts);
    }
}

// ---------------------------------------------------------------------
// Affinity-aware placement.
// ---------------------------------------------------------------------

TEST(AffinityPlacement, EqualsLeastLoadedOnHomogeneousFleet)
{
    // Same admit/release sequence against two identical homogeneous
    // clusters: the affinity policy's pick sequence must be exactly
    // least-loaded's (equal costs everywhere, tie-break by occupancy
    // then index).
    sim::Cluster cluster_ll(4, sim::Machine::Config{});
    sim::Cluster cluster_aa(4, sim::Machine::Config{});
    Scheduler least_loaded(
        cluster_ll,
        SchedulerOptions{makeLeastLoadedPlacement(), 0, {}, nullptr});
    Scheduler affinity(
        cluster_aa,
        SchedulerOptions{makeAffinityAwarePlacement(), 0, {}, nullptr});
    EXPECT_EQ(affinity.policy().name(), "affinity-aware");

    for (int round = 0; round < 12; ++round) {
        const auto a = admitJob(least_loaded);
        const auto b = admitJob(affinity);
        ASSERT_TRUE(a && b);
        EXPECT_EQ(*a, *b) << "admit round " << round;
        if (round % 3 == 2) {
            least_loaded.release(*a);
            affinity.release(*b);
        }
    }
}

TEST(AffinityPlacement, PrefersTheBigClassOnAnIdleMixedFleet)
{
    // Little machines first in the catalog, so index order (the
    // class-blind least-loaded pick on an idle fleet) and class
    // preference disagree.
    const auto big_little = sim::MachineCatalog::bigLittle();
    const sim::MachineCatalog catalog(
        {{"little", big_little.at(1).config},
         {"big", big_little.at(0).config}});
    sim::Cluster cluster_ll(catalog, {2, 1});
    sim::Cluster cluster_aa(catalog, {2, 1});

    Scheduler least_loaded(
        cluster_ll,
        SchedulerOptions{makeLeastLoadedPlacement(), 0, {}, nullptr});
    Scheduler affinity(
        cluster_aa,
        SchedulerOptions{makeAffinityAwarePlacement(), 0, {}, nullptr});
    EXPECT_EQ(admitJob(least_loaded), 0u); // class-blind: lowest index.
    EXPECT_EQ(admitJob(affinity), 2u);     // class-aware: the big box.
}

TEST(AffinityPlacement, OverflowFollowsTheSameCost)
{
    // With the big machine at the queue-depth bound, pickAmong must
    // keep pricing the little candidates by class tables (both little
    // machines idle: lowest index wins).
    const auto big_little = sim::MachineCatalog::bigLittle();
    const sim::MachineCatalog catalog(
        {{"little", big_little.at(1).config},
         {"big", big_little.at(0).config}});
    sim::Cluster cluster(catalog, {2, 1});
    SchedulerOptions options;
    options.placement = makeAffinityAwarePlacement();
    options.queue_depth = 2;
    Scheduler scheduler(cluster, options);

    auto first = admitJob(scheduler);
    auto second = admitJob(scheduler);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(*first, 2u);
    EXPECT_EQ(*second, 2u);
    auto overflow = admitJob(scheduler);
    ASSERT_TRUE(overflow.has_value());
    EXPECT_EQ(*overflow, 0u);
}

// ---------------------------------------------------------------------
// Class-aware admission pricing.
// ---------------------------------------------------------------------

TEST(HeteroAdmission, PredictionIsSlowerOnTheLittleClass)
{
    // A weak knob (max speedup 1.5x) cannot absorb the little class's
    // effective-speed deficit, so the class tables must show through
    // the prediction. (With a strong enough knob the controller wins
    // the deficit back and both classes price at the baseline — the
    // catch-up credit is deliberate.)
    powerdial::tests::ToyApp::Config weak;
    weak.k_values = {1.0, 1.5};
    auto p = makePipeline(weak);
    const auto catalog = sim::MachineCatalog::bigLittle();
    sim::Cluster cluster(catalog, {1, 1});
    SchedulerOptions options;
    options.placement = makeLeastLoadedPlacement();
    options.admission = makePredictiveAdmission();
    options.model = &p.model;
    Scheduler scheduler(cluster, options);

    // Least-loaded fills index order: job 1 lands on the big machine,
    // job 2 on the little one. Same model, same occupancy — the only
    // difference is the host class's tables.
    const OfferedJob job{0, 0, 0.0};
    const auto on_big = scheduler.tryAdmit(job);
    const auto on_little = scheduler.tryAdmit(job);
    ASSERT_TRUE(on_big && on_little);
    ASSERT_EQ(on_big->machine, 0u);
    ASSERT_EQ(on_little->machine, 1u);
    EXPECT_GT(on_big->predicted_s, 0.0);
    EXPECT_GT(on_little->predicted_s, on_big->predicted_s);
}

// ---------------------------------------------------------------------
// Bit-identity: homogeneous fleets through the catalog seam.
// ---------------------------------------------------------------------

FleetReport
serveScenario(const tests::Pipeline &p, FleetScenario scenario,
              EngineMode engine, bool through_catalog,
              std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.threads = threads;
    if (through_catalog) {
        options.catalog =
            sim::MachineCatalog::homogeneous(options.machine);
        options.class_mix = {options.machines};
    }
    Server server(p.app, p.table, p.model, options);
    return server.serve(scenario.arrivals);
}

TEST(HomogeneousCatalog, BitIdenticalAcrossSeededSweep)
{
    // The catalog seam must be invisible for one-class fleets: every
    // report field bit-identical to the legacy configuration, under
    // both engines and at more than one thread count.
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "reproduce with makeFleetScenario(seed="
                     << seed << ")");
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Epoch, false),
            serveScenario(p, scenario, EngineMode::Epoch, true));
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Event, false),
            serveScenario(p, scenario, EngineMode::Event, true));
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Epoch, true),
            serveScenario(p, scenario, EngineMode::Epoch, true, 4));
        if (::testing::Test::HasFailure())
            break; // One seed's full diff is enough output.
    }
}

TEST(HomogeneousCatalog, AffinityPlacementKeepsLegacyReports)
{
    // On a homogeneous fleet the affinity policy must not merely pick
    // the same machines — the whole report must be bit-identical to
    // least-loaded's.
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());

    ServerOptions least_loaded = scenario.options;
    least_loaded.placement = makeLeastLoadedPlacement();
    ServerOptions affinity = scenario.options;
    affinity.placement = makeAffinityAwarePlacement();

    Server a(p.app, p.table, p.model, least_loaded);
    Server b(p.app, p.table, p.model, affinity);
    expectReportsIdentical(a.serve(scenario.arrivals),
                           b.serve(scenario.arrivals));
}

// ---------------------------------------------------------------------
// Shed accounting on heterogeneous fleets (per-machine vs per-class).
// ---------------------------------------------------------------------

TEST(HeteroFleet, ShedAccountingIsConsistentAcrossEngines)
{
    auto p = makePipeline();
    ServerOptions options;
    options.catalog = sim::MachineCatalog::bigLittle();
    options.class_mix = {1, 2};
    options.queue_depth = 2;
    options.placement = makeAffinityAwarePlacement();
    options.tenants = p.app.productionInputs();
    // Offered load far past the 3 * queue_depth active bound.
    const std::vector<std::size_t> arrivals = {9, 9, 9, 6, 0, 0};

    for (const EngineMode engine :
         {EngineMode::Epoch, EngineMode::Event}) {
        SCOPED_TRACE(engine == EngineMode::Epoch ? "epoch" : "event");
        ServerOptions run = options;
        run.engine = engine;
        Server server(p.app, p.table, p.model, run);
        const FleetReport report = server.serve(arrivals);

        ASSERT_GT(report.total_shed, 0u);
        ASSERT_EQ(report.machines.size(), 3u);

        // Per-machine sheds account for every shed exactly once, and
        // the per-machine report rows carry the same attribution.
        const std::size_t by_machine = std::accumulate(
            report.shed_by_machine.begin(),
            report.shed_by_machine.end(), std::size_t{0});
        EXPECT_EQ(by_machine, report.total_shed);
        std::size_t row_shed = 0, row_jobs = 0;
        for (std::size_t i = 0; i < report.machines.size(); ++i) {
            EXPECT_EQ(report.machines[i].machine, i);
            EXPECT_EQ(report.machines[i].shed,
                      report.shed_by_machine[i]);
            row_shed += report.machines[i].shed;
            row_jobs += report.machines[i].jobs;
        }
        EXPECT_EQ(row_shed, report.total_shed);
        EXPECT_EQ(row_jobs, report.total_jobs);
        EXPECT_EQ(report.machines[0].machine_class, 0u);
        EXPECT_EQ(report.machines[1].machine_class, 1u);
        EXPECT_EQ(report.machines[2].machine_class, 1u);

        // Per-class sheds partition the same total.
        const std::size_t by_class = std::accumulate(
            report.shed_by_class.begin(), report.shed_by_class.end(),
            std::size_t{0});
        EXPECT_EQ(by_class, report.total_shed);
        std::size_t class_rows = 0;
        for (const ClassStats &row : report.classes)
            class_rows += row.shed;
        EXPECT_EQ(class_rows, report.total_shed);
    }
}

} // namespace
} // namespace powerdial::fleet

/** @file Unit tests for sim::Cluster. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/admission.h"
#include "fleet/scheduler.h"
#include "fleet/server.h"
#include "fleet_scenarios.h"
#include "sim/cluster.h"
#include "sim/machine_catalog.h"
#include "workload/rng.h"

namespace powerdial::sim {
namespace {

Machine::Config
config8()
{
    return Machine::Config{};
}

TEST(Cluster, PaperBaselineProvisioning)
{
    // Paper section 5.5: four 8-core machines -> peak 32 instances.
    Cluster cluster(4, config8());
    EXPECT_EQ(cluster.size(), 4u);
    EXPECT_EQ(cluster.totalCores(), 32u);
    EXPECT_EQ(cluster.peakInstances(), 32u);
}

TEST(Cluster, BalanceSpreadsEvenly)
{
    Cluster cluster(4, config8());
    const auto p = cluster.balance(32);
    for (const auto count : p)
        EXPECT_EQ(count, 8u);
}

TEST(Cluster, BalanceDistributesRemainder)
{
    Cluster cluster(4, config8());
    const auto p = cluster.balance(10);
    EXPECT_EQ(p[0], 3u);
    EXPECT_EQ(p[1], 3u);
    EXPECT_EQ(p[2], 2u);
    EXPECT_EQ(p[3], 2u);
    std::size_t total = 0;
    for (const auto c : p)
        total += c;
    EXPECT_EQ(total, 10u);
}

TEST(Cluster, LoadOfUndersubscribed)
{
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(4);
    EXPECT_DOUBLE_EQ(load.utilization, 0.5);
    EXPECT_DOUBLE_EQ(load.per_instance_share, 1.0);
    EXPECT_DOUBLE_EQ(load.required_speedup, 1.0);
}

TEST(Cluster, LoadOfOversubscribed)
{
    // 32 instances on one 8-core machine: the consolidated system at
    // peak load needs a 4x knob speedup (paper: 3/4 machine reduction).
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(32);
    EXPECT_DOUBLE_EQ(load.utilization, 1.0);
    EXPECT_DOUBLE_EQ(load.per_instance_share, 0.25);
    EXPECT_DOUBLE_EQ(load.required_speedup, 4.0);
}

TEST(Cluster, LoadOfEmpty)
{
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(0);
    EXPECT_DOUBLE_EQ(load.utilization, 0.0);
    EXPECT_DOUBLE_EQ(load.required_speedup, 1.0);
}

TEST(Cluster, IdleMachinesDrawIdlePower)
{
    Cluster cluster(4, config8());
    const double watts = cluster.steadyStateWatts(0u);
    const double idle =
        cluster.machine(0).powerModel().idleWatts();
    EXPECT_NEAR(watts, 4.0 * idle, 1e-9);
}

TEST(Cluster, FullLoadDrawsPeakPower)
{
    Cluster cluster(4, config8());
    const double watts = cluster.steadyStateWatts(32u);
    const double peak =
        cluster.machine(0).powerModel().peakWatts();
    EXPECT_NEAR(watts, 4.0 * peak, 1e-9);
}

TEST(Cluster, PowerMonotoneInLoad)
{
    Cluster cluster(4, config8());
    double prev = -1.0;
    for (std::size_t load = 0; load <= 32; ++load) {
        const double watts = cluster.steadyStateWatts(load);
        EXPECT_GE(watts, prev - 1e-12);
        prev = watts;
    }
}

TEST(Cluster, ConsolidatedClusterUsesLessPowerAtEqualLoad)
{
    // The headline of Figure 8: fewer machines, same offered load,
    // less total power.
    Cluster original(4, config8());
    Cluster consolidated(1, config8());
    for (std::size_t load : {4u, 8u, 16u, 32u}) {
        EXPECT_LT(consolidated.steadyStateWatts(std::min<std::size_t>(
                      load, consolidated.peakInstances() * 4)),
                  original.steadyStateWatts(load));
    }
}

TEST(Cluster, MaxRequiredSpeedup)
{
    Cluster cluster(1, config8());
    EXPECT_DOUBLE_EQ(cluster.maxRequiredSpeedup(cluster.balance(32)),
                     4.0);
    EXPECT_DOUBLE_EQ(cluster.maxRequiredSpeedup(cluster.balance(8)),
                     1.0);
}

TEST(Cluster, LowerPStateReducesLoadedPower)
{
    Cluster cluster(2, config8());
    const auto placement = cluster.balance(16);
    EXPECT_LT(cluster.steadyStateWatts(placement, 6),
              cluster.steadyStateWatts(placement, 0));
}

TEST(Cluster, Validation)
{
    EXPECT_THROW(Cluster(0, config8()), std::invalid_argument);
    Cluster cluster(2, config8());
    EXPECT_THROW(cluster.steadyStateWatts({1u, 2u, 3u}),
                 std::invalid_argument);
}

TEST(Cluster, BalanceEqualsSequentialLeastLoadedPlacement)
{
    // cluster.h claims least-loaded placement is "equivalent to an
    // even split". Pin that: placing instances one at a time on the
    // currently least-loaded machine (lowest index on ties) must land
    // on exactly balance()'s distribution — including non-divisible
    // counts — for every load up to 2x peak.
    for (const std::size_t machines : {1u, 3u, 4u, 5u}) {
        Cluster cluster(machines, config8());
        for (std::size_t n = 0; n <= 2 * cluster.peakInstances();
             ++n) {
            std::vector<std::size_t> sequential(machines, 0);
            for (std::size_t k = 0; k < n; ++k) {
                std::size_t least = 0;
                for (std::size_t i = 1; i < machines; ++i)
                    if (sequential[i] < sequential[least])
                        least = i;
                ++sequential[least];
            }
            EXPECT_EQ(cluster.balance(n), sequential)
                << machines << " machines, " << n << " instances";
        }
    }
}

TEST(Cluster, DynamicPlacementTracksOccupancy)
{
    Cluster cluster(3, config8());
    EXPECT_EQ(cluster.totalActive(), 0u);
    cluster.place(1);
    cluster.place(1);
    cluster.place(2);
    EXPECT_EQ(cluster.activeOn(0), 0u);
    EXPECT_EQ(cluster.activeOn(1), 2u);
    EXPECT_EQ(cluster.activeOn(2), 1u);
    EXPECT_EQ(cluster.totalActive(), 3u);
    cluster.release(1);
    EXPECT_EQ(cluster.activeOn(1), 1u);
    cluster.clearPlacement();
    EXPECT_EQ(cluster.totalActive(), 0u);
    EXPECT_THROW(cluster.release(0), std::logic_error);
    EXPECT_THROW(cluster.place(9), std::out_of_range);
}

TEST(Cluster, DynamicWattsMatchesAnalyticAtUniformState)
{
    // With every machine at the same P-state, the dynamic view must
    // agree with the analytic steady-state model for the same
    // placement.
    Cluster cluster(4, config8());
    const auto placement = cluster.balance(10);
    for (std::size_t i = 0; i < cluster.size(); ++i)
        for (std::size_t k = 0; k < placement[i]; ++k)
            cluster.place(i);
    EXPECT_NEAR(cluster.dynamicWatts(),
                cluster.steadyStateWatts(placement), 1e-9);
}

TEST(Cluster, DynamicWattsSeesPerMachineCaps)
{
    // Unlike steadyStateWatts (one common P-state), the dynamic view
    // accounts each machine at its own, possibly capped, frequency.
    Cluster cluster(2, config8());
    cluster.place(0);
    cluster.place(1);
    const double uncapped = cluster.dynamicWatts();
    cluster.machine(1).setPStateCap(
        cluster.machine(1).scale().lowestState());
    EXPECT_LT(cluster.dynamicWatts(), uncapped);
}

// ---------------------------------------------------------------------
// The occupancy index against a linear scan.
// ---------------------------------------------------------------------

namespace reference {

/**
 * Least-loaded placement as it ran before the occupancy index: a scan
 * over every machine for the first strict minimum.
 */
std::size_t
leastLoadedScan(const Cluster &cluster)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < cluster.size(); ++i)
        if (cluster.activeOn(i) < cluster.activeOn(best))
            best = i;
    return best;
}

} // namespace reference

/** Fewest active instances, by scanning every machine. */
std::size_t
scanMinActive(const Cluster &cluster)
{
    const auto &active = cluster.activeCounts();
    return *std::min_element(active.begin(), active.end());
}

TEST(Cluster, OccupancyIndexMatchesLinearScan)
{
    // Seeded random place/release/clearPlacement sequences on fleet
    // sizes that straddle the index's 64-machine words, homogeneous
    // and provisioned from a two-class catalog. The sequence
    // alternates fill phases (mostly placements) with drain phases
    // (mostly releases), so the minimum climbs well above zero and
    // falls back. Half the placements go to the least-loaded machine,
    // so long runs of ties build up; the rest land anywhere, so
    // counts spread out.
    for (const std::size_t machines : {1u, 63u, 64u, 65u, 130u}) {
        for (const bool mixed : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << machines << " machines, "
                         << (mixed ? "two-class" : "homogeneous"));
            Cluster cluster =
                mixed ? Cluster(MachineCatalog::bigLittle(),
                                {machines - machines / 3, machines / 3})
                      : Cluster(machines, config8());
            ASSERT_EQ(cluster.size(), machines);
            workload::Rng rng(machines * 2 + (mixed ? 1 : 0));
            std::size_t peak_min = 0;
            for (std::size_t step = 0; step < 8000; ++step) {
                const bool fill = (step / 1000) % 2 == 0;
                const std::uint64_t op = rng.below(1000);
                const std::size_t any =
                    static_cast<std::size_t>(rng.below(machines));
                const std::uint64_t places = fill ? 700 : 300;
                if (op < places / 2) {
                    cluster.place(any);
                } else if (op < places) {
                    cluster.place(reference::leastLoadedScan(cluster));
                } else if (op < 999) {
                    // Release the first busy machine at or after a
                    // random start.
                    for (std::size_t k = 0; k < machines; ++k) {
                        const std::size_t i = (any + k) % machines;
                        if (cluster.activeOn(i) > 0) {
                            cluster.release(i);
                            break;
                        }
                    }
                } else {
                    cluster.clearPlacement();
                }
                ASSERT_EQ(cluster.minActive(), scanMinActive(cluster))
                    << "step " << step;
                ASSERT_EQ(cluster.leastLoaded(),
                          reference::leastLoadedScan(cluster))
                    << "step " << step;
                peak_min = std::max(peak_min, cluster.minActive());
            }
            EXPECT_GE(peak_min, 2u) << "the minimum never left zero";
        }
    }
}

TEST(Cluster, OccupancyIndexSurvivesCopies)
{
    // The serve provisions its cluster by value; a copy carries its
    // own index and the two diverge independently.
    Cluster a(65, config8());
    for (std::size_t i = 0; i < 65; ++i)
        a.place(i);
    a.release(64);
    Cluster b = a;
    b.place(64);
    EXPECT_EQ(a.minActive(), 0u);
    EXPECT_EQ(a.leastLoaded(), 64u);
    EXPECT_EQ(b.minActive(), 1u);
    EXPECT_EQ(b.leastLoaded(), 0u);
}

} // namespace
} // namespace powerdial::sim

namespace powerdial::fleet {
namespace {

namespace reference {

/**
 * The least-loaded placement policy as it ran before the occupancy
 * index. Overflow (pickAmong) keeps the base-class rule, as
 * LeastLoadedPolicy does.
 */
class LeastLoadedScan final : public PlacementPolicy
{
  public:
    std::string name() const override { return "least-loaded"; }

    std::size_t
    pick(const sim::Cluster &cluster) const override
    {
        return sim::reference::leastLoadedScan(cluster);
    }
};

} // namespace reference

TEST(OccupancyIndex, ServesExactlyLikeTheLinearScan)
{
    // Whole serves: the default least-loaded placement (the index)
    // against the reference scan, on seeded scenarios as drawn, with
    // predictive admission under a queue-depth bound, and on a
    // two-class catalog — every report field bit-identical on both
    // schedules.
    auto p = tests::makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    const PlacementFactory scan = []() {
        return std::make_unique<reference::LeastLoadedScan>();
    };
    std::size_t shed_serves = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (int variant = 0; variant < 3; ++variant) {
            SCOPED_TRACE(::testing::Message()
                         << "reproduce with makeFleetScenario(seed="
                         << seed << "), variant " << variant);
            tests::FleetScenario scenario =
                tests::makeFleetScenario(seed, baseline_s, inputs);
            ServerOptions &o = scenario.options;
            if (variant == 1) {
                o.admission = makePredictiveAdmission();
                o.queue_depth = 2 + seed % 4;
            } else if (variant == 2) {
                o.catalog = sim::MachineCatalog::bigLittle();
                o.class_mix = {1 + seed % 3, 1 + seed % 2};
                o.queue_depth = seed % 2 == 0 ? 3 : 0;
            }
            for (const EngineMode engine :
                 {EngineMode::Epoch, EngineMode::Event}) {
                ServerOptions indexed = o;
                indexed.engine = engine;
                indexed.placement = makeLeastLoadedPlacement();
                ServerOptions scanned = indexed;
                scanned.placement = scan;
                Server a(p.app, p.table, p.model, indexed);
                Server b(p.app, p.table, p.model, scanned);
                const FleetReport report = a.serve(scenario.arrivals);
                shed_serves += report.total_shed > 0 ? 1 : 0;
                tests::expectReportsIdentical(
                    report, b.serve(scenario.arrivals));
            }
            if (::testing::Test::HasFailure())
                return; // One scenario's full diff is enough output.
        }
    }
    // The sweep must reach the capacity-shed path, not only admits.
    EXPECT_GT(shed_serves, 0u);
}

} // namespace
} // namespace powerdial::fleet

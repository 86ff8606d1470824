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
 *   4. *Options and feedback arithmetic*: bad options are rejected at
 *      construction, and the sorted feedback windows price exactly the
 *      margin the old copy-and-sort algorithm did.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fleet/admission.h"
#include "fleet/metrics_hub.h"
#include "fleet/server.h"
#include "fleet_scenarios.h"
#include "workload/rng.h"
#include "workload/traffic_mix.h"

namespace powerdial::fleet {
namespace {

using tests::admitJob;
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

    const auto machine = admitJob(scheduler);
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
    const auto fallback = admitJob(least);
    ASSERT_TRUE(fallback.has_value());
    EXPECT_EQ(*fallback, 1u);
}

TEST(Scheduler, CapacityShedsExactlyWhenNoMachineHasRoom)
{
    // Every occupancy of three 2-core machines up to the bound (depth
    // 4), under every built-in placement policy: an arrival is shed
    // for capacity exactly when every machine is at the bound, and
    // otherwise lands on a machine with room. The power-aware and
    // affinity picks often name a full machine while another has
    // room, which is the overflow path the capacity shortcut must not
    // cut short.
    sim::Machine::Config config;
    config.cores = 2;
    const std::size_t depth = 4;
    for (const PlacementFactory &placement :
         {makeLeastLoadedPlacement(), makePowerAwarePlacement(),
          makeAffinityAwarePlacement()}) {
        for (std::size_t code = 0; code < 125; ++code) {
            const std::vector<std::size_t> counts = {
                code % 5, code / 5 % 5, code / 25};
            sim::Cluster cluster(3, config);
            Scheduler scheduler(
                cluster, SchedulerOptions{placement, depth, {}, nullptr});
            SCOPED_TRACE(::testing::Message()
                         << scheduler.policy().name() << " occupancy "
                         << counts[0] << "," << counts[1] << ","
                         << counts[2]);
            for (std::size_t i = 0; i < counts.size(); ++i)
                for (std::size_t k = 0; k < counts[i]; ++k)
                    cluster.place(i);

            const bool full = *std::min_element(counts.begin(),
                                                counts.end()) >= depth;
            const auto machine = admitJob(scheduler);
            EXPECT_EQ(machine.has_value(), !full);
            if (machine.has_value())
                EXPECT_LT(counts[*machine], depth);
            else
                EXPECT_STREQ(scheduler.lastVerdict().shed_cause,
                             "capacity");
        }
    }
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

// ---------------------------------------------------------------------
// 4. Option validation and the margin feedback's arithmetic.
// ---------------------------------------------------------------------

TEST(PredictiveAdmission, RejectsBadOptionsAtConstruction)
{
    // Each row was accepted before construction validated it; the
    // first made the margin clamp call std::clamp with hi < lo.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Row
    {
        const char *what;
        double initial_margin, min_margin, max_margin, class_headroom;
    };
    const Row rows[] = {
        {"min_margin > max_margin", 1.0, 2.0, 1.0, 0.25},
        {"NaN initial_margin", nan, 0.5, 4.0, 0.25},
        {"infinite initial_margin", inf, 0.5, 4.0, 0.25},
        {"zero initial_margin", 0.0, 0.5, 4.0, 0.25},
        {"NaN min_margin", 1.0, nan, 4.0, 0.25},
        {"zero min_margin", 1.0, 0.0, 4.0, 0.25},
        {"negative min_margin", 1.0, -0.5, 4.0, 0.25},
        {"NaN max_margin", 1.0, 0.5, nan, 0.25},
        {"infinite max_margin", 1.0, 0.5, inf, 0.25},
        {"negative class_headroom", 1.0, 0.5, 4.0, -0.25},
        {"NaN class_headroom", 1.0, 0.5, 4.0, nan},
        {"infinite class_headroom", 1.0, 0.5, 4.0, inf},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        PredictiveAdmissionOptions options;
        options.initial_margin = row.initial_margin;
        options.min_margin = row.min_margin;
        options.max_margin = row.max_margin;
        options.class_headroom = row.class_headroom;
        const AdmissionFactory factory = makePredictiveAdmission(options);
        try {
            factory();
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &error) {
            EXPECT_EQ(std::string(error.what())
                          .rfind("PredictiveAdmission:", 0),
                      0u)
                << error.what();
        }
    }
    // The boundaries stay legal: equal bounds and zero headroom.
    PredictiveAdmissionOptions edge;
    edge.min_margin = edge.max_margin = edge.initial_margin = 1.5;
    edge.class_headroom = 0.0;
    EXPECT_NO_THROW(makePredictiveAdmission(edge)());
}

/**
 * The margin feedback as it was computed before the sorted windows:
 * copy both rings and sort them on every completion, then read the
 * nearest-rank p95s.
 */
class CopyAndSortMargin
{
  public:
    explicit CopyAndSortMargin(const PredictiveAdmissionOptions &options)
        : options_(options), margin_(options.initial_margin)
    {
    }

    double margin() const { return margin_; }

    void
    noteCompletion(double observed_s, double predicted_s)
    {
        if (predicted_s <= 0.0 || observed_s < 0.0)
            return;
        if (observed_.size() < options_.window) {
            observed_.push_back(observed_s);
            predicted_.push_back(predicted_s);
        } else {
            observed_[next_] = observed_s;
            predicted_[next_] = predicted_s;
        }
        next_ = (next_ + 1) % options_.window;
        std::vector<double> observed = observed_;
        std::vector<double> predicted = predicted_;
        std::sort(observed.begin(), observed.end());
        std::sort(predicted.begin(), predicted.end());
        const double predicted_p95 = percentileOf(predicted, 95.0);
        if (predicted_p95 <= 0.0)
            return;
        margin_ = std::clamp(percentileOf(observed, 95.0) / predicted_p95,
                             options_.min_margin, options_.max_margin);
    }

  private:
    PredictiveAdmissionOptions options_;
    double margin_;
    std::vector<double> observed_;
    std::vector<double> predicted_;
    std::size_t next_ = 0;
};

/** The margin @p policy would price the next arrival with. */
double
marginOf(AdmissionPolicy &policy)
{
    const sim::Cluster cluster(1, sim::Machine::Config{});
    const auto placement = makeLeastLoadedPlacement()();
    const AdmissionContext context{cluster, *placement, 0, nullptr,
                                   nullptr};
    return policy.decide(OfferedJob{0, 0, 0.0}, context).margin;
}

TEST(PredictiveAdmission, SortedWindowsReproduceCopyAndSortMargin)
{
    // Seeded completion streams, fed to the policy and to the old
    // algorithm side by side; the margins must agree exactly after
    // every completion. Values are drawn from a small grid half the
    // time, so windows hold repeated values, and each stream runs
    // well past the first eviction. Rejected inputs (non-positive
    // prediction, negative observation) are mixed in too.
    for (const std::size_t window : {1u, 2u, 5u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "window=" << window << " seed=" << seed);
            PredictiveAdmissionOptions options;
            options.window = window;
            const auto policy = makePredictiveAdmission(options)();
            CopyAndSortMargin oracle(options);
            workload::Rng rng(seed);
            auto draw = [&rng](double lo, double hi) {
                if (rng.below(2) == 0)
                    return lo + (hi - lo) *
                        static_cast<double>(rng.below(4)) / 4.0;
                return rng.uniform(lo, hi);
            };
            const std::size_t completions = 6 * window + 40;
            for (std::size_t k = 0; k < completions; ++k) {
                double observed = draw(0.05, 3.0);
                double predicted = draw(0.1, 1.5);
                switch (rng.below(16)) {
                case 0:
                    predicted = 0.0;
                    break;
                case 1:
                    observed = -observed;
                    break;
                default:
                    break;
                }
                policy->noteCompletion(observed, predicted);
                oracle.noteCompletion(observed, predicted);
                ASSERT_EQ(marginOf(*policy), oracle.margin())
                    << "completion " << k;
            }
        }
    }
}

TEST(PredictiveAdmission, NonFiniteCompletionsLeaveMarginUnchanged)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    PredictiveAdmissionOptions options;
    options.window = 5;
    const auto policy = makePredictiveAdmission(options)();
    CopyAndSortMargin oracle(options);
    workload::Rng rng(3);
    for (std::size_t k = 0; k < 40; ++k) {
        const double observed = rng.uniform(0.05, 3.0);
        const double predicted = rng.uniform(0.1, 1.5);
        policy->noteCompletion(observed, predicted);
        oracle.noteCompletion(observed, predicted);

        // Ignored entirely: the margin holds, and the windows are
        // untouched, so the next finite completion still agrees.
        const double before = marginOf(*policy);
        for (const auto &[bad_observed, bad_predicted] :
             {std::pair{nan, 1.0}, std::pair{inf, 1.0},
              std::pair{-inf, 1.0}, std::pair{1.0, nan},
              std::pair{1.0, inf}, std::pair{nan, nan}}) {
            policy->noteCompletion(bad_observed, bad_predicted);
            EXPECT_EQ(marginOf(*policy), before) << "completion " << k;
        }
        ASSERT_EQ(before, oracle.margin()) << "completion " << k;
    }
}

TEST(PredictiveAdmission, FusedWindowStepEqualsEvictThenInsert)
{
    // The old window step, verbatim: erase the first element equal to
    // the evicted value, then insert the new one after its equals.
    const auto evict_then_insert = [](std::vector<double> &sorted,
                                      double old, double value) {
        sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), old));
        sorted.insert(
            std::upper_bound(sorted.begin(), sorted.end(), value), value);
    };
    // Seeded windows drawn from a small grid that holds both zeros,
    // so values repeat and +0 and -0 (equal, but told apart by their
    // bits) share runs; each step evicts a value the window holds.
    const double grid[] = {-0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0};
    for (const std::size_t size : {1u, 2u, 5u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "size=" << size << " seed=" << seed);
            workload::Rng rng(seed);
            const auto draw = [&] {
                return rng.below(2) == 0 ? grid[rng.below(7)]
                                         : rng.uniform(-1.0, 3.0);
            };
            std::vector<double> ring(size);
            for (double &value : ring)
                value = draw();
            std::vector<double> fused = ring;
            std::sort(fused.begin(), fused.end());
            std::vector<double> oracle = fused;
            for (std::size_t k = 0; k < 8 * size + 40; ++k) {
                const std::size_t slot = k % size;
                const double value = draw();
                detail::replaceSorted(fused, ring[slot], value);
                evict_then_insert(oracle, ring[slot], value);
                ring[slot] = value;
                ASSERT_EQ(fused.size(), oracle.size());
                for (std::size_t i = 0; i < fused.size(); ++i)
                    ASSERT_EQ(std::signbit(fused[i]),
                              std::signbit(oracle[i]))
                        << "step " << k << " index " << i;
                ASSERT_EQ(fused, oracle) << "step " << k;
            }
        }
    }
}

} // namespace
} // namespace powerdial::fleet

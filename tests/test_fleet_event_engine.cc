/**
 * @file
 * Differential harness for the discrete-event fleet engine.
 *
 * The engine's correctness story has two legs, both pinned here:
 *
 *   1. *Differential*: in epoch-compat mode the event engine must
 *      reproduce the legacy epoch loop's FleetReport bit for bit —
 *      every epoch row, every job record, every aggregate — across a
 *      randomized sweep of seeded scenarios (machines, tenant mixes,
 *      Poisson rates, queue depths, epoch fractions, all three
 *      arbiter policies). Failures print the reproducing seed.
 *
 *   2. *Invariants*: in full event mode (where reports legitimately
 *      differ from the epoch loop) every serve must still conserve
 *      jobs (admitted = completed + drained), keep per-machine power
 *      budgets summing to the cluster cap after every arbitration
 *      event, fire arbitrations at monotone non-decreasing times with
 *      strictly increasing lease generations, and stay bit-identical
 *      across thread counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/server.h"
#include "fleet/tenant.h"
#include "fleet_scenarios.h"
#include "obs/trace_json.h"
#include "sim/machine_catalog.h"

namespace powerdial::fleet {
namespace {

using tests::FleetScenario;
using tests::expectReportsIdentical;
using tests::makeFleetScenario;
using tests::makePipeline;

/** Serve one scenario under the given engine mode. */
FleetReport
serveScenario(const tests::Pipeline &p, const FleetScenario &scenario,
              EngineMode engine, bool epoch_compat = false,
              std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.event.epoch_compat = epoch_compat;
    options.threads = threads;
    Server server(p.app, p.table, p.model, options);
    return server.serve(scenario.arrivals);
}

std::size_t
completedAcrossEpochs(const FleetReport &report)
{
    std::size_t completed = 0;
    for (const EpochStats &row : report.epochs)
        completed += row.completed;
    return completed;
}

// ---------------------------------------------------------------------
// Differential: epoch loop vs event engine in epoch-compat mode.
// ---------------------------------------------------------------------

TEST(EventEngineDifferential, CompatMatchesEpochOnSpikeScenario)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        42, p.model.baselineSeconds(), p.app.productionInputs());
    expectReportsIdentical(
        serveScenario(p, scenario, EngineMode::Epoch),
        serveScenario(p, scenario, EngineMode::Event, true));
}

TEST(EventEngineDifferential, RandomizedSweepFiftySeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "reproduce with makeFleetScenario(seed="
                     << seed << ")");
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Epoch),
            serveScenario(p, scenario, EngineMode::Event, true));
        if (::testing::Test::HasFailure())
            break; // One seed's full diff is enough output.
    }
}

TEST(EventEngineDifferential, CompatShedAccountingMatchesEpochEngine)
{
    // Satellite: shed accounting under pressure. A 1-machine fleet
    // with a tight queue bound and a hot trace must shed, and the
    // sheds must agree between engines in total, per machine, per
    // epoch row, and in lease-generation context (the full row
    // comparison covers generation tags).
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());
    scenario.options.machines = 1;
    scenario.options.queue_depth = 3;
    scenario.options.epoch_seconds = p.model.baselineSeconds() * 0.5;
    scenario.arrivals = {6, 6, 0, 6, 1, 0, 0};

    const FleetReport epoch =
        serveScenario(p, scenario, EngineMode::Epoch);
    const FleetReport compat =
        serveScenario(p, scenario, EngineMode::Event, true);
    ASSERT_GT(epoch.total_shed, 0u);
    EXPECT_EQ(epoch.total_shed, compat.total_shed);
    EXPECT_EQ(epoch.shed_by_machine, compat.shed_by_machine);
    expectReportsIdentical(epoch, compat);

    // Attribution is complete: per-machine sheds sum to the total.
    const std::size_t attributed =
        std::accumulate(epoch.shed_by_machine.begin(),
                        epoch.shed_by_machine.end(), std::size_t{0});
    EXPECT_EQ(attributed, epoch.total_shed);
}

TEST(EventEngineDifferential, CompatIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        11, p.model.baselineSeconds(), p.app.productionInputs());
    expectReportsIdentical(
        serveScenario(p, scenario, EngineMode::Event, true, 1),
        serveScenario(p, scenario, EngineMode::Event, true, 4));
}

// ---------------------------------------------------------------------
// Event-mode invariants (reports may differ from the epoch loop, but
// these properties must hold on every serve).
// ---------------------------------------------------------------------

TEST(EventEngineInvariants, ConservesJobsAcrossSeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const FleetReport report =
            serveScenario(p, scenario, EngineMode::Event);

        // Admitted = completed inside the horizon + in flight at the
        // horizon; every admitted job has exactly one record; offered
        // = admitted + shed.
        EXPECT_EQ(report.total_jobs,
                  completedAcrossEpochs(report) + report.drained_jobs);
        EXPECT_EQ(report.jobs.size(), report.total_jobs);
        std::size_t offered = 0;
        for (const std::size_t n : scenario.arrivals)
            offered += n;
        EXPECT_EQ(offered, report.total_jobs + report.total_shed);
        const std::size_t attributed = std::accumulate(
            report.shed_by_machine.begin(),
            report.shed_by_machine.end(), std::size_t{0});
        EXPECT_EQ(attributed, report.total_shed);
    }
}

TEST(EventEngineInvariants, BudgetsSumToCapAfterEveryArbitration)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    std::size_t capped_scenarios = 0;
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const double cap = scenario.options.arbiter.cluster_cap_watts;
        if (cap <= 0.0)
            continue;
        ++capped_scenarios;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                double total = 0.0;
                for (const double watts :
                     sample.decision.budget_watts)
                    total += watts;
                EXPECT_NEAR(total, cap, 1e-9)
                    << "arbitration at t=" << sample.time_s
                    << " generation " << sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = EngineMode::Event;
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(scenario.arrivals);
        if (report.total_jobs > 0) {
            EXPECT_GT(rounds, 0u);
        }
    }
    // The sweep range must actually exercise capped arbitration.
    EXPECT_GT(capped_scenarios, 3u);
}

TEST(EventEngineInvariants, ArbitrationEventsAreMonotone)
{
    // Event timestamps never run backwards and every arbitration
    // installs a fresh, strictly increasing lease generation — in
    // both engine modes.
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const bool compat : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "compat=" << compat);
        FleetScenario scenario = makeFleetScenario(
            21, p.model.baselineSeconds(), inputs);
        double last_time = -1.0;
        std::size_t last_generation = 0;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                EXPECT_GE(sample.time_s, last_time);
                EXPECT_GT(sample.generation, last_generation);
                last_time = sample.time_s;
                last_generation = sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = EngineMode::Event;
        options.event.epoch_compat = compat;
        Server server(p.app, p.table, p.model, options);
        server.serve(scenario.arrivals);
        EXPECT_GT(rounds, 0u);
    }
}

TEST(EventEngineInvariants, EventModeIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const std::uint64_t seed : {5ULL, 23ULL, 31ULL}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario = makeFleetScenario(
            seed, p.model.baselineSeconds(), inputs);
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Event, false, 1),
            serveScenario(p, scenario, EngineMode::Event, false, 4));
    }
}

// ---------------------------------------------------------------------
// Event-mode behaviour: sampling, quanta, validation.
// ---------------------------------------------------------------------

TEST(EventEngine, SampleStrideCoarsensTheReport)
{
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        3, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.sample_stride = 4;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);

    const std::size_t n = scenario.arrivals.size();
    EXPECT_EQ(report.epochs.size(), (n + 3) / 4);
    for (std::size_t w = 0; w < report.epochs.size(); ++w)
        EXPECT_EQ(report.epochs[w].epoch, w * 4);
    // Coarser rows lose no jobs.
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, SubEpochQuantumStillConservesJobs)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        13, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.quantum_seconds = options.epoch_seconds / 3.0;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, QuantumBoundsCompletionDiscoveryLatency)
{
    // One machine, one job, epochs twice the job duration: the job
    // finishes mid-epoch. Its completion-triggered arbitration fires
    // at the first quantum tick past the finish — so a finer quantum
    // must discover it strictly earlier than the default one-epoch
    // quantum, which cannot notice it before the epoch ends.
    auto p = makePipeline();
    const double epoch_s = p.model.baselineSeconds() * 2.0;
    const auto discoveryTime = [&](double quantum) {
        ServerOptions options;
        options.machines = 1;
        options.epoch_seconds = epoch_s;
        options.engine = EngineMode::Event;
        options.event.quantum_seconds = quantum;
        std::vector<double> times;
        options.arbitration_probe =
            [&times](const ArbitrationSample &sample) {
                times.push_back(sample.time_s);
            };
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(std::vector<std::size_t>{1, 0, 0});
        EXPECT_EQ(report.total_jobs, 1u);
        EXPECT_EQ(report.drained_jobs, 0u);
        // Admission round + completion round, nothing else: quantum
        // ticks without a completion re-price nothing, and the chain
        // stops once the fleet idles.
        EXPECT_EQ(times.size(), 2u);
        return times.back();
    };
    const double coarse = discoveryTime(0.0); // Default: one epoch.
    const double fine = discoveryTime(epoch_s / 8.0);
    EXPECT_DOUBLE_EQ(coarse, epoch_s);
    EXPECT_LT(fine, coarse);
    EXPECT_GT(fine, 0.0);
}

TEST(EventEngine, ValidatesEngineOptions)
{
    auto p = makePipeline();
    ServerOptions options;
    options.event.sample_stride = 0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);

    options = ServerOptions{};
    options.event.quantum_seconds = -1.0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);

    // Compat mode *is* the legacy schedule; a custom stride or
    // quantum would contradict it.
    options = ServerOptions{};
    options.event.epoch_compat = true;
    options.event.sample_stride = 2;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);
    options = ServerOptions{};
    options.event.epoch_compat = true;
    options.event.quantum_seconds = 0.5;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);
}

TEST(EventEngine, IdleEpochsScheduleNoArbitration)
{
    // The scale win in one assertion: a trace that goes quiet stops
    // producing arbitration rounds once the last tenant drains, while
    // the epoch loop re-prices every epoch regardless.
    auto p = makePipeline();
    ServerOptions options;
    options.machines = 2;
    options.epoch_seconds = p.model.baselineSeconds() * 2.0;
    options.arbiter.cluster_cap_watts = 400.0;
    std::vector<std::size_t> arrivals(40, 0);
    arrivals[0] = 3; // One early burst, then silence.

    std::size_t event_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++event_rounds;
    };
    options.engine = EngineMode::Event;
    Server event_server(p.app, p.table, p.model, options);
    const FleetReport report = event_server.serve(arrivals);
    EXPECT_EQ(report.total_jobs, 3u);

    std::size_t epoch_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++epoch_rounds;
    };
    options.engine = EngineMode::Epoch;
    Server epoch_server(p.app, p.table, p.model, options);
    epoch_server.serve(arrivals);

    EXPECT_EQ(epoch_rounds, arrivals.size());
    EXPECT_LT(event_rounds, epoch_rounds / 2);
    EXPECT_GT(event_rounds, 0u);
}

// ---------------------------------------------------------------------
// Tenant recycling: a pooled tenant serves its next job exactly like a
// freshly built one, and a serve clones once per peak tenant.
// ---------------------------------------------------------------------

/** One job as the engines hand it to a tenant. */
struct TenantJob
{
    std::size_t job = 0;
    std::size_t input = 0;
    std::size_t machine = 0;
    sim::Machine::Config host;
    ArbitrationLease lease;
    double arrival_s = 0.0;
};

void
assignTenantJob(detail::Tenant &tenant, const ServerOptions &options,
                MetricsHub &hub, const TenantJob &job)
{
    const workload::OfferedJob offer{job.input, 1, 0.0};
    detail::assignJob(tenant, options, hub, job.host, job.job,
                      job.machine, 0, job.arrival_s, offer, 0.0);
}

/**
 * Install @p job's lease (as writeLease would), run to the end, and
 * attribute the job's beats (as a stats sample would).
 */
void
runTenantJob(detail::Tenant &tenant, const TenantJob &job)
{
    tenant.lease = job.lease;
    tenant.slice_deadline_s = std::numeric_limits<double>::infinity();
    detail::runSlice(tenant, 0);
    EXPECT_TRUE(tenant.done);
    tenant.beats_reported = tenant.probe->record().beats;
}

/** Assert two just-assigned tenants hold identical per-job state. */
void
expectSameJobState(const detail::Tenant &a, const detail::Tenant &b)
{
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.input, b.input);
    EXPECT_EQ(a.machine_index, b.machine_index);
    EXPECT_EQ(a.arrival_epoch, b.arrival_epoch);
    EXPECT_EQ(a.arrival_time_s, b.arrival_time_s);
    EXPECT_EQ(a.machine.now(), b.machine.now());
    EXPECT_EQ(a.machine.energyJoules(), b.machine.energyJoules());
    EXPECT_EQ(a.machine.powerTrace().size(),
              b.machine.powerTrace().size());
    EXPECT_EQ(a.machine.pstate(), b.machine.pstate());
    EXPECT_EQ(a.machine.pstateCap(), b.machine.pstateCap());
    EXPECT_EQ(a.machine.frequencyHz(), b.machine.frequencyHz());
    EXPECT_EQ(a.machine.speedFactor(), b.machine.speedFactor());
    EXPECT_EQ(a.machine.cores(), b.machine.cores());
    EXPECT_EQ(a.machine.share(), b.machine.share());
    EXPECT_EQ(a.machine.utilization(), b.machine.utilization());
    EXPECT_EQ(a.lease.generation, b.lease.generation);
    EXPECT_EQ(a.lease.epoch, b.lease.epoch);
    EXPECT_EQ(a.lease.share, b.lease.share);
    EXPECT_EQ(a.lease.utilization, b.lease.utilization);
    EXPECT_EQ(a.lease.pstate_cap, b.lease.pstate_cap);
    EXPECT_EQ(a.lease.pause_ratio, b.lease.pause_ratio);
    EXPECT_EQ(a.applied_generation, b.applied_generation);
    EXPECT_EQ(a.slice_deadline_s, b.slice_deadline_s);
    EXPECT_EQ(a.beats_reported, b.beats_reported);
    EXPECT_EQ(a.started, b.started);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.session->active(), b.session->active());
    tests::expectJobRecordsIdentical(a.probe->record(), b.probe->record());
}

/** Job @p job's trace stream from @p sink, as JSONL. */
std::string
traceStreamOf(obs::TraceSink &sink, std::size_t job)
{
    std::vector<obs::TraceRecord> stream;
    for (const obs::TraceRecord &record : sink.drain())
        if (record.job == job)
            stream.push_back(record);
    std::ostringstream jsonl;
    obs::writeJsonl(jsonl, stream);
    return jsonl.str();
}

TEST(TenantPool, RecycledTenantMatchesFreshTenant)
{
    auto p = makePipeline();
    const auto catalog = sim::MachineCatalog::bigLittle();
    // Job A differs from B in input, machine class, lease terms, and
    // pause ratio, but shares B's lease generation, so a tenant that
    // kept A's applied generation would skip B's terms.
    TenantJob a;
    a.job = 4;
    a.input = 2;
    a.machine = 1;
    a.host = catalog.at(1).config;
    a.lease = ArbitrationLease{5, 0, 0.5, 0.75, 2, 0.6};
    a.arrival_s = 1.5;
    TenantJob b;
    b.job = 9;
    b.input = 3;
    b.machine = 0;
    b.host = catalog.at(0).config;
    b.lease = ArbitrationLease{5, 1, 1.0, 0.25, 1, 0.2};
    b.arrival_s = 4.0;

    obs::TraceSink fresh_sink, reused_sink;
    fresh_sink.beginServe(1);
    reused_sink.beginServe(1);
    ServerOptions fresh_options;
    fresh_options.tenants = p.app.productionInputs();
    ServerOptions reused_options = fresh_options;
    fresh_options.trace = &fresh_sink;
    reused_options.trace = &reused_sink;
    MetricsHub fresh_hub(1), reused_hub(1);
    auto fresh = detail::makeTenant(fresh_options, p.app, p.table,
                                    p.model, fresh_hub);
    auto reused = detail::makeTenant(reused_options, p.app, p.table,
                                     p.model, reused_hub);

    assignTenantJob(*reused, reused_options, reused_hub, a);
    runTenantJob(*reused, a);
    assignTenantJob(*reused, reused_options, reused_hub, b);
    assignTenantJob(*fresh, fresh_options, fresh_hub, b);
    expectSameJobState(*reused, *fresh);
    runTenantJob(*reused, b);
    runTenantJob(*fresh, b);

    const std::vector<JobRecord> fresh_records = fresh_hub.drain();
    const std::vector<JobRecord> reused_records = reused_hub.drain();
    ASSERT_EQ(fresh_records.size(), 1u);
    ASSERT_EQ(reused_records.size(), 2u);
    EXPECT_NE(reused_records.front().latency_s,
              reused_records.back().latency_s);
    tests::expectJobRecordsIdentical(reused_records.back(),
                                     fresh_records.back());
    const std::string fresh_trace = traceStreamOf(fresh_sink, b.job);
    EXPECT_FALSE(fresh_trace.empty());
    EXPECT_EQ(traceStreamOf(reused_sink, b.job), fresh_trace);
}

/** Clone bookkeeping shared by a prototype and all its clones. */
struct CloneCounts
{
    std::size_t clones = 0;
    std::size_t alive = 0;
    std::size_t peak_alive = 0;
};

/** A ToyApp whose clones report to a shared CloneCounts. */
class CountingApp final : public powerdial::tests::ToyApp
{
  public:
    explicit CountingApp(CloneCounts &counts) : counts_(&counts) {}

    CountingApp(const CountingApp &other)
        : ToyApp(other), counts_(other.counts_), is_clone_(true)
    {
        ++counts_->clones;
        counts_->peak_alive = std::max(counts_->peak_alive,
                                       ++counts_->alive);
    }

    ~CountingApp() override
    {
        if (is_clone_)
            --counts_->alive;
    }

    CountingApp &operator=(const CountingApp &) = delete;

    std::unique_ptr<core::App>
    clone() const override
    {
        return std::make_unique<CountingApp>(*this);
    }

  private:
    CloneCounts *counts_;
    bool is_clone_ = false;
};

TEST(TenantPool, EventServeClonesOncePerPeakTenant)
{
    // Every held tenant owns exactly one clone, so the clones alive at
    // once count the tenants held; with recycling no clone dies before
    // the serve ends, so clone() calls equal that peak — not the job
    // count.
    auto p = makePipeline();
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        CloneCounts counts;
        CountingApp app(counts);
        ServerOptions options;
        options.machines = 2;
        options.epoch_seconds = p.model.baselineSeconds() * 0.5;
        options.arbiter.cluster_cap_watts = 400.0;
        options.engine = EngineMode::Event;
        options.threads = threads;
        const std::vector<std::size_t> arrivals = {3, 1, 0, 2, 4, 0, 0,
                                                   1, 3, 0, 2, 0, 0, 0};
        Server server(app, p.table, p.model, options);
        const FleetReport report = server.serve(arrivals);

        EXPECT_EQ(report.total_jobs, 16u);
        EXPECT_EQ(counts.clones, counts.peak_alive);
        EXPECT_LT(counts.clones, report.total_jobs);
        EXPECT_EQ(counts.alive, 0u);
        std::size_t peak_active = 0;
        for (const EpochStats &row : report.epochs)
            peak_active = std::max(peak_active, row.active);
        EXPECT_GE(counts.clones, peak_active);
    }
}

TEST(TenantPool, LeaseGateHonoursARetunedPauseAtTheNextBeat)
{
    // An arbiter retunes the lease's pause ratio between beats and the
    // next beat already honours it, after the caller's own gate.
    auto p = makePipeline();
    ServerOptions options;
    options.session.withGate(
        [](core::BeatGateContext &ctx) { ctx.pause_per_busy = 0.1; });
    MetricsHub hub(1);
    auto tenant = detail::makeTenant(options, p.app, p.table, p.model, hub);
    const core::BeatGate &gate = tenant->session->options().gate;
    sim::Machine machine;
    core::BeatGateContext first{0, machine};
    gate(first);
    EXPECT_DOUBLE_EQ(first.pause_per_busy, 0.1);
    tenant->lease.pause_ratio = 0.3;
    core::BeatGateContext second{1, machine};
    gate(second);
    EXPECT_DOUBLE_EQ(second.pause_per_busy, 0.4);
}

} // namespace
} // namespace powerdial::fleet

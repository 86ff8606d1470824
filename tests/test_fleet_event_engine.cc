/**
 * @file
 * Properties of the discrete-event fleet engine.
 *
 * Its reports legitimately differ from the epoch schedule's (arbitration
 * fires on state changes, not on the epoch clock), so the engine is
 * pinned by invariants instead: every serve must conserve jobs
 * (admitted = completed + drained), keep per-machine power budgets
 * summing to the cluster cap after every arbitration event, fire
 * arbitrations at monotone non-decreasing times with strictly
 * increasing lease generations, and stay bit-identical across thread
 * counts — plus its sampling, quantum, and validation behaviour, and
 * the tenant pool both schedules recycle tenants through.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
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
              EngineMode engine, std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
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
// Shed accounting on the epoch schedule.
// ---------------------------------------------------------------------

TEST(EventEngineDifferential, CompatShedAccountingMatchesEpochEngine)
{
    // Shed accounting under pressure on the epoch schedule: a
    // 1-machine fleet with a tight queue bound and a hot trace must
    // shed, and every shed is attributed to a machine.
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());
    scenario.options.machines = 1;
    scenario.options.queue_depth = 3;
    scenario.options.epoch_seconds = p.model.baselineSeconds() * 0.5;
    scenario.arrivals = {6, 6, 0, 6, 1, 0, 0};

    const FleetReport epoch =
        serveScenario(p, scenario, EngineMode::Epoch);
    ASSERT_GT(epoch.total_shed, 0u);
    const std::size_t attributed =
        std::accumulate(epoch.shed_by_machine.begin(),
                        epoch.shed_by_machine.end(), std::size_t{0});
    EXPECT_EQ(attributed, epoch.total_shed);
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
    for (const EngineMode engine : {EngineMode::Epoch, EngineMode::Event})
        for (std::uint64_t seed = 100; seed < 120; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "seed=" << seed << " engine="
                         << (engine == EngineMode::Epoch ? "epoch"
                                                         : "event"));
            const FleetScenario scenario =
                makeFleetScenario(seed, baseline_s, inputs);
            const FleetReport report =
                serveScenario(p, scenario, engine);

            // Admitted = completed inside the horizon + in flight at
            // the horizon; every admitted job has exactly one finished
            // record, stored at its job id, holding its whole run (every
            // beat, a latency breakdown that closes, and a lease count
            // that agrees with its last lease); offered = admitted +
            // shed.
            EXPECT_EQ(report.total_jobs,
                      completedAcrossEpochs(report) +
                          report.drained_jobs);
            ASSERT_EQ(report.jobs.size(), report.total_jobs);
            for (std::size_t i = 0; i < report.jobs.size(); ++i) {
                const JobRecord &job = report.jobs[i];
                SCOPED_TRACE(::testing::Message() << "job " << i);
                EXPECT_EQ(job.job, i);
                EXPECT_EQ(job.beats, p.app.unitCount());
                EXPECT_GT(job.energy_j, 0.0);
                const double breakdown = job.service_s +
                    job.queue_share_s + job.class_deficit_s + job.pause_s;
                EXPECT_LE(std::fabs(breakdown - job.latency_s),
                          1e-6 * std::max(1.0, job.latency_s));
                EXPECT_EQ(job.lease_updates > 0, job.lease_generation > 0);
            }
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
    for (const EngineMode engine : {EngineMode::Epoch, EngineMode::Event}) {
        SCOPED_TRACE(::testing::Message()
                     << "engine="
                     << (engine == EngineMode::Epoch ? "epoch" : "event"));
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
        options.engine = engine;
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
            serveScenario(p, scenario, EngineMode::Event, 1),
            serveScenario(p, scenario, EngineMode::Event, 4));
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

TEST(EventEngine, CompletionDiscoveredAtEpochEndInTwoRounds)
{
    // One machine, one job, epochs twice the job duration: the job
    // finishes mid-epoch. The engine visits an active tenant once an
    // epoch, so its completion-triggered arbitration fires at the
    // first tick past the finish, the end of the epoch.
    auto p = makePipeline();
    const double epoch_s = p.model.baselineSeconds() * 2.0;
    ServerOptions options;
    options.machines = 1;
    options.epoch_seconds = epoch_s;
    options.engine = EngineMode::Event;
    std::vector<double> times;
    options.arbitration_probe =
        [&times](const ArbitrationSample &sample) {
            times.push_back(sample.time_s);
        };
    Server server(p.app, p.table, p.model, options);
    const FleetReport report =
        server.serve(std::vector<std::size_t>{1, 0, 0});
    EXPECT_EQ(report.total_jobs, 1u);
    EXPECT_EQ(report.drained_jobs, 0u);
    // Admission round + completion round, nothing else: a tick without
    // a completion re-prices nothing, and the chain stops once the
    // fleet idles.
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times.back(), epoch_s);
}

/** Assert the Server constructor rejects @p options at its boundary. */
void
expectRejected(const tests::Pipeline &p, const ServerOptions &options)
{
    try {
        Server(p.app, p.table, p.model, options);
        ADD_FAILURE() << "Server accepted invalid options";
    } catch (const std::invalid_argument &error) {
        EXPECT_EQ(std::string(error.what()).rfind("Server:", 0), 0u)
            << error.what();
    }
}

TEST(EventEngine, ValidatesEngineOptions)
{
    auto p = makePipeline();
    ServerOptions options;
    options.event.sample_stride = 0;
    expectRejected(p, options);

    // Non-finite serve timing: an infinite epoch would stamp NaN
    // (0 x inf) trace times, and NaN compares false against every
    // bound, so the field rejects anything non-finite up front.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, -inf, nan}) {
        SCOPED_TRACE(::testing::Message() << "value " << bad);
        options = ServerOptions{};
        options.epoch_seconds = bad;
        expectRejected(p, options);
    }
}

TEST(EventEngine, RejectsBadFleetConfigurationBeforeServing)
{
    // Each row names one input a serve cannot run. The first four
    // must fail the constructor; the rest, offers, must fail serve()
    // before any job is admitted, so no arbitration round runs even
    // though a good offer comes first.
    auto p = makePipeline();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t not_an_input = p.app.inputCount();
    struct Row
    {
        std::string name;
        std::function<void(ServerOptions &)> set;
        std::optional<workload::OfferedJob> offered; //!< The bad offer.
    };
    const auto keep = [](ServerOptions &) {};
    const std::vector<Row> rows = {
        {"tenant entry that is not an app input",
         [&](ServerOptions &o) { o.tenants = {0, not_an_input}; },
         std::nullopt},
        {"arbiter cap PowerArbiter rejects",
         [&](ServerOptions &o) { o.arbiter.cluster_cap_watts = nan; },
         std::nullopt},
        {"arbiter feedback gain PowerArbiter rejects",
         [](ServerOptions &o) { o.arbiter.feedback_gain = 1.5; },
         std::nullopt},
        {"machine config sim::Machine rejects",
         [](ServerOptions &o) { o.machine.cores = 0; }, std::nullopt},
        {"offered tenant that is not an app input", keep,
         workload::OfferedJob{not_an_input, 0, 0.0}},
        {"offered class SIZE_MAX", keep,
         workload::OfferedJob{0, SIZE_MAX, 0.0}},
        {"offered NaN deadline", keep, workload::OfferedJob{0, 0, nan}},
        {"offered negative deadline", keep,
         workload::OfferedJob{0, 0, -1.0}},
        {"offered infinite deadline", keep,
         workload::OfferedJob{0, 0, inf}},
    };
    for (const EngineMode engine : {EngineMode::Epoch, EngineMode::Event}) {
        for (const Row &row : rows) {
            SCOPED_TRACE(::testing::Message()
                         << row.name << ", engine "
                         << static_cast<int>(engine));
            ServerOptions options;
            options.engine = engine;
            std::size_t rounds = 0;
            options.arbitration_probe =
                [&rounds](const ArbitrationSample &) { ++rounds; };
            row.set(options);
            if (!row.offered.has_value()) {
                expectRejected(p, options);
                continue;
            }
            Server server(p.app, p.table, p.model, options);
            const std::vector<std::vector<workload::OfferedJob>> offers =
                {{{0, 0, 0.0}}, {*row.offered}};
            try {
                server.serve(offers);
                ADD_FAILURE() << "serve accepted an invalid offer";
            } catch (const std::invalid_argument &error) {
                EXPECT_EQ(std::string(error.what()).rfind("Server:", 0),
                          0u)
                    << error.what();
            }
            EXPECT_EQ(rounds, 0u);
        }
    }
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
    /** The host's class configuration: a catalog entry, as the pool
     *  passes cluster.configOf(machine). */
    const sim::Machine::Config *host = nullptr;
    ArbitrationLease lease;
    double arrival_s = 0.0;
};

/** Assign @p job to @p tenant, which reads @p host_lease. */
void
assignTenantJob(detail::Tenant &tenant, const ServerOptions &options,
                const TenantJob &job, const ArbitrationLease &host_lease)
{
    const workload::OfferedJob offer{job.input, 1, 0.0};
    detail::assignJob(tenant, options, *job.host, host_lease, job.job,
                      job.machine, 0, job.arrival_s, offer, 0.0);
}

/**
 * Install @p job's terms in @p host_lease, the lease @p tenant reads
 * (as an arbitration round would), run to the end, attribute the job's
 * beats (as a stats sample would), and take the job's record and trace
 * stream (as the release would).
 */
JobRecord
runTenantJob(detail::Tenant &tenant, const TenantJob &job,
             ArbitrationLease &host_lease)
{
    host_lease = job.lease;
    tenant.slice_deadline_s = std::numeric_limits<double>::infinity();
    detail::runSlice(tenant);
    EXPECT_TRUE(tenant.done);
    tenant.beats_reported = tenant.record.beats;
    JobRecord record = tenant.record;
    record.energy_j = tenant.machine.energyJoules();
    if (tenant.trace)
        tenant.trace->flush();
    return record;
}

/** Assert two just-assigned tenants hold identical per-job state. */
void
expectSameJobState(const detail::Tenant &a, const detail::Tenant &b)
{
    tests::expectJobRecordsIdentical(a.record, b.record);
    EXPECT_EQ(a.arrival_time_s, b.arrival_time_s);
    EXPECT_EQ(a.machine.now(), b.machine.now());
    EXPECT_EQ(a.machine.energyJoules(), b.machine.energyJoules());
    EXPECT_EQ(a.machine.pstate(), b.machine.pstate());
    EXPECT_EQ(a.machine.pstateCap(), b.machine.pstateCap());
    EXPECT_EQ(a.machine.frequencyHz(), b.machine.frequencyHz());
    EXPECT_EQ(a.machine.speedFactor(), b.machine.speedFactor());
    EXPECT_EQ(a.machine.cores(), b.machine.cores());
    EXPECT_EQ(a.machine.share(), b.machine.share());
    EXPECT_EQ(a.machine.utilization(), b.machine.utilization());
    EXPECT_EQ(a.lease->generation, b.lease->generation);
    EXPECT_EQ(a.lease->epoch, b.lease->epoch);
    EXPECT_EQ(a.lease->share, b.lease->share);
    EXPECT_EQ(a.lease->utilization, b.lease->utilization);
    EXPECT_EQ(a.lease->pstate_cap, b.lease->pstate_cap);
    EXPECT_EQ(a.lease->pause_ratio, b.lease->pause_ratio);
    EXPECT_EQ(a.slice_deadline_s, b.slice_deadline_s);
    EXPECT_EQ(a.beats_reported, b.beats_reported);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.session->active(), b.session->active());
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
    // The reused slot reads its host's lease from one lease per
    // machine, as a serve's tenants do; each fresh slot reads a lease
    // of its own, as every tenant did before leases were kept per
    // machine. Both hold the same terms, so the jobs must match.
    auto p = makePipeline();
    const auto catalog = sim::MachineCatalog::bigLittle();
    // Job A differs from B in input, machine class, lease terms, and
    // pause ratio, but shares B's lease generation, so a tenant that
    // kept A's applied generation would skip B's terms.
    TenantJob a;
    a.job = 4;
    a.input = 2;
    a.machine = 1;
    a.host = &catalog.at(1).config;
    a.lease = ArbitrationLease{5, 0, 0.5, 0.75, 2, 0.6};
    a.arrival_s = 1.5;
    TenantJob b;
    b.job = 9;
    b.input = 3;
    b.machine = 0;
    b.host = &catalog.at(0).config;
    b.lease = ArbitrationLease{5, 1, 1.0, 0.25, 1, 0.2};
    b.arrival_s = 4.0;

    obs::TraceSink fresh_sink, reused_sink;
    ServerOptions fresh_options;
    fresh_options.tenants = p.app.productionInputs();
    ServerOptions reused_options = fresh_options;
    fresh_options.trace = &fresh_sink;
    reused_options.trace = &reused_sink;
    std::vector<ArbitrationLease> machine_leases(2);
    ArbitrationLease fresh_lease;
    // Both slots are built for the first job's class: A's for the
    // reused slot, so B then rebuilds its machine's class tables.
    auto fresh = detail::makeTenant(fresh_options, p.app, p.table,
                                    p.model, *b.host);
    auto reused = detail::makeTenant(reused_options, p.app, p.table,
                                     p.model, *a.host);

    assignTenantJob(*reused, reused_options, a,
                    machine_leases[a.machine]);
    const JobRecord reused_a =
        runTenantJob(*reused, a, machine_leases[a.machine]);
    assignTenantJob(*reused, reused_options, b,
                    machine_leases[b.machine]);
    assignTenantJob(*fresh, fresh_options, b, fresh_lease);
    machine_leases[b.machine] = b.lease;
    fresh_lease = b.lease;
    expectSameJobState(*reused, *fresh);
    EXPECT_EQ(reused->lease, &machine_leases[b.machine]);
    const JobRecord reused_b =
        runTenantJob(*reused, b, machine_leases[b.machine]);
    const JobRecord fresh_b = runTenantJob(*fresh, b, fresh_lease);

    EXPECT_NE(reused_a.latency_s, reused_b.latency_s);
    tests::expectJobRecordsIdentical(reused_b, fresh_b);
    const std::string fresh_trace = traceStreamOf(fresh_sink, b.job);
    EXPECT_FALSE(fresh_trace.empty());
    EXPECT_EQ(traceStreamOf(reused_sink, b.job), fresh_trace);

    // Job C lands on B's class through the same catalog entry, so the
    // reused slot only rewinds its machine instead of rebuilding the
    // class tables; it must still match a fresh slot.
    TenantJob c = b;
    c.job = 12;
    c.input = 2;
    c.lease = ArbitrationLease{6, 2, 0.5, 0.5, 3, 0.1};
    c.arrival_s = 6.5;
    ArbitrationLease fresh_c_lease;
    auto fresh_c = detail::makeTenant(fresh_options, p.app, p.table,
                                      p.model, *c.host);
    assignTenantJob(*reused, reused_options, c,
                    machine_leases[c.machine]);
    assignTenantJob(*fresh_c, fresh_options, c, fresh_c_lease);
    machine_leases[c.machine] = c.lease;
    fresh_c_lease = c.lease;
    expectSameJobState(*reused, *fresh_c);
    tests::expectJobRecordsIdentical(
        runTenantJob(*reused, c, machine_leases[c.machine]),
        runTenantJob(*fresh_c, c, fresh_c_lease));
    EXPECT_EQ(traceStreamOf(reused_sink, c.job),
              traceStreamOf(fresh_sink, c.job));
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
    const sim::Machine::Config host;
    auto tenant =
        detail::makeTenant(options, p.app, p.table, p.model, host);
    ArbitrationLease lease;
    tenant->lease = &lease;
    const core::BeatGate &gate = tenant->session->options().gate;
    sim::Machine machine;
    core::BeatGateContext first{0, machine};
    gate(first);
    EXPECT_DOUBLE_EQ(first.pause_per_busy, 0.1);
    lease.pause_ratio = 0.3;
    core::BeatGateContext second{1, machine};
    gate(second);
    EXPECT_DOUBLE_EQ(second.pause_per_busy, 0.4);
}

} // namespace
} // namespace powerdial::fleet

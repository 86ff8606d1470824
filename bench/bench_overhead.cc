/**
 * @file
 * Microbenches for the section 5.1 overhead claim: "The overhead of
 * the PowerDial control system is insignificant."
 *
 * Measures the real (host) cost of the control-plane primitives — a
 * heartbeat emission, a controller step, an actuation re-plan, a knob
 * application — against the per-unit work of the cheapest benchmark
 * kernel, which dwarfs them; plus the per-beat cost of the Session's
 * RunObserver seam, which must be negligible when no observer is
 * attached, and of the fleet's lease-gated tenant slice, on one slot
 * and round robin over 1024. The per-beat
 * benches report their beats as items, so the harness prints ns/beat
 * as their ns/item.
 *
 * Times everything with the harness in vendor/microbench.h, then runs
 * two checks: the tracing-disabled ceiling, and the fleet's allocation
 * ceiling (operator new calls to build a tenant slot and to run a job
 * on it). The exit status is nonzero if either fails.
 */
#include "vendor/microbench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/swaptions/pricer.h"
#include "bench_common.h"
#include "core/actuation_strategy.h"
#include "core/control_policy.h"
#include "core/knob.h"
#include "core/session.h"
#include "fleet/tenant.h"
#include "heartbeats/heartbeat.h"
#include "obs/trace_sink.h"

using namespace powerdial;

namespace {

/** operator new calls since the program started. */
std::atomic<std::size_t> g_allocations{0};

} // namespace

// Count every allocation the benches and checks make; the array and
// nothrow forms of the standard library call this one.
void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

static void
BM_HeartbeatEmission(benchmark::State &state)
{
    hb::Monitor monitor(20);
    double t = 0.0;
    for (auto _ : state) {
        t += 1e-3;
        monitor.beat(t);
        benchmark::DoNotOptimize(monitor.count());
    }
}
BENCHMARK(BM_HeartbeatEmission);

static void
BM_ControllerStep(benchmark::State &state)
{
    core::DeadbeatPolicy policy;
    policy.begin({1000.0, 1000.0, 1.0, 50.0});
    double rate = 900.0;
    for (auto _ : state) {
        rate = rate < 1000.0 ? 1100.0 : 900.0;
        benchmark::DoNotOptimize(policy.update(rate));
    }
}
BENCHMARK(BM_ControllerStep);

core::ResponseModel
benchModel()
{
    std::vector<core::OperatingPoint> points;
    for (std::size_t c = 0; c < 40; ++c) {
        points.push_back({c, 1.0 + 0.25 * static_cast<double>(c),
                          0.002 * static_cast<double>(c)});
    }
    return core::ResponseModel(points, 0, 10.0, 100.0);
}

static void
BM_StrategyPlan(benchmark::State &state)
{
    const auto model = benchModel();
    core::MinimalSpeedupStrategy strategy;
    strategy.begin(model, 20);
    core::ActuationPlan plan;
    double cmd = 1.0;
    for (auto _ : state) {
        cmd = cmd > 9.0 ? 1.0 : cmd + 0.37;
        strategy.plan(cmd, plan);
        benchmark::DoNotOptimize(plan.slices.data());
    }
}
BENCHMARK(BM_StrategyPlan);

static void
BM_KnobTableApply(benchmark::State &state)
{
    core::KnobTable table;
    double sink = 0.0;
    table.bind({"a", [&](const std::vector<double> &v) { sink = v[0]; }});
    table.bind({"b", [&](const std::vector<double> &v) { sink += v[0]; }});
    for (std::size_t c = 0; c < 8; ++c) {
        table.record(c, 0, {static_cast<double>(c)});
        table.record(c, 1, {static_cast<double>(c) * 2.0});
    }
    std::size_t combo = 0;
    for (auto _ : state) {
        table.apply(combo);
        combo = (combo + 1) % 8;
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_KnobTableApply);

/** The work one heartbeat governs, at the *cheapest* knob setting. */
static void
BM_AppUnitWork_SwaptionsMinKnob(benchmark::State &state)
{
    apps::swaptions::Swaption s;
    s.forward_rate = 0.05;
    s.strike = 0.045;
    s.volatility = 0.2;
    s.maturity = 2.0;
    s.tenor = 5.0;
    s.discount_rate = 0.03;
    s.notional = 100.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(apps::swaptions::price(s, 250, 1));
}
BENCHMARK(BM_AppUnitWork_SwaptionsMinKnob);

// ---------------------------------------------------------------------------
// Observer-seam overhead: a full Session run per iteration, on an app
// whose per-unit work is nearly free, so the measured time is the
// runtime loop itself. Comparing the three variants isolates the cost
// of observer dispatch per beat — it must be negligible (and exactly
// zero trace-building work) when no observer is attached.
// ---------------------------------------------------------------------------

constexpr std::size_t kSessionUnits = 256;

/** A nearly-free app: the session loop dominates the measurement. */
class NullWorkApp final : public core::App
{
  public:
    NullWorkApp() : space_({{"k", {1.0, 2.0}}}) {}

    std::string name() const override { return "nullwork"; }
    std::unique_ptr<core::App>
    clone() const override
    {
        return std::make_unique<NullWorkApp>(*this);
    }
    const core::KnobSpace &knobSpace() const override { return space_; }
    std::size_t defaultCombination() const override { return 0; }
    void
    configure(const std::vector<double> &params) override
    {
        k_ = params.at(0);
    }
    void
    traceRun(influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        influence::Value<double> k(params.at(0),
                                   influence::paramBit(0));
        trace.store("k", k, "nullwork:init");
        trace.firstHeartbeat();
        trace.read("k", "nullwork:loop");
    }
    void
    bindControlVariables(core::KnobTable &table) override
    {
        table.bind({"k", [this](const std::vector<double> &v) {
                        k_ = v.at(0);
                    }});
    }
    std::size_t inputCount() const override { return 2; }
    std::vector<std::size_t>
    trainingInputs() const override
    {
        return {0};
    }
    std::vector<std::size_t>
    productionInputs() const override
    {
        return {1};
    }
    void loadInput(std::size_t) override {}
    std::size_t unitCount() const override { return kSessionUnits; }
    void
    processUnit(std::size_t, sim::Machine &machine) override
    {
        machine.execute(100.0 / k_);
    }
    qos::OutputAbstraction
    output() const override
    {
        return {{1.0}, {}};
    }

  private:
    core::KnobSpace space_;
    double k_ = 1.0;
};

struct SessionFixture
{
    NullWorkApp app;
    core::KnobTable table;
    core::ResponseModel model;

    SessionFixture()
    {
        app.bindControlVariables(table);
        table.record(0, 0, {1.0});
        table.record(1, 0, {2.0});
        model = core::ResponseModel({{0, 1.0, 0.0}, {1, 2.0, 0.01}},
                                    0, 1.0, 1000.0);
    }
};

/** Report @p state's runs of kSessionUnits beats as items. */
void
countBeats(benchmark::State &state)
{
    state.SetItemsProcessed(state.iterations() * kSessionUnits);
}

/** No observer attached: the baseline cost of one 256-beat run. */
static void
BM_Session256Beats_NoObserver(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
    countBeats(state);
}
BENCHMARK(BM_Session256Beats_NoObserver);

/**
 * The beat both fleet workloads mostly run: one lease-gated tenant slot
 * (fleet/tenant.h) serving 256-beat jobs in slices of about ten beats,
 * its lease rewritten every third slice the way an arbitration round
 * rewrites it (alternating two sets of terms, so every rewrite
 * re-actuates the machine). Read its ns/beat beside
 * BM_Session256Beats_NoObserver's: the difference is the fleet's
 * per-beat layer — the lease gate, slicing, and record keeping.
 */
static void
BM_FleetTenant256Beats_Slices10(benchmark::State &state)
{
    SessionFixture f;
    fleet::ServerOptions options;
    options.tenants = {1};
    const sim::Machine::Config host;
    fleet::ArbitrationLease lease; // The host's lease.
    auto tenant = fleet::detail::makeTenant(options, f.app, f.table,
                                            f.model, host);
    // Ten beats at the baseline knob on an uncapped host.
    const double slice_s = 10.0 * 100.0 / host.scale.maxHz();
    const workload::OfferedJob offer{1, 0, 0.0};
    std::size_t job = 0;
    std::size_t generation = 0;
    for (auto _ : state) {
        fleet::detail::assignJob(*tenant, options, host, lease, job++, 0,
                                 0, 0.0, offer, 0.0);
        for (std::size_t slice = 0; !tenant->done; ++slice) {
            if (slice % 3 == 0) {
                const bool odd = ++generation % 2 == 1;
                lease.generation = generation;
                lease.share = odd ? 0.5 : 1.0;
                lease.utilization = odd ? 0.25 : 0.125;
                lease.pstate_cap = odd ? 1 : 0;
            }
            tenant->slice_deadline_s = tenant->machine.now() + slice_s;
            fleet::detail::runSlice(*tenant);
        }
        benchmark::DoNotOptimize(tenant->record.latency_s);
    }
    countBeats(state);
}
BENCHMARK(BM_FleetTenant256Beats_Slices10);

/**
 * The same lease-gated slices across 1024 tenant slots visited round
 * robin, one ten-beat slice per visit, the way a serve's slice section
 * walks a large fleet: a slot whose job has finished takes the next
 * job, and each slot reads a host lease of its own, rewritten every
 * third visit, one of its two sets of terms with a duty-cycle pause,
 * so beats alternate busy and idle draw as they do under a power cap.
 * One slot stays cache-resident however much state a beat touches;
 * 1024 do not, so read this bench's ns/beat beside
 * BM_FleetTenant256Beats_Slices10's for the cost of each slot's
 * working set (its session, machine and record).
 */
static void
BM_FleetTenants1024RoundRobin_Slices10(benchmark::State &state)
{
    constexpr std::size_t kSlots = 1024;
    SessionFixture f;
    fleet::ServerOptions options;
    options.tenants = {1};
    const sim::Machine::Config host;
    const double slice_s = 10.0 * 100.0 / host.scale.maxHz();
    const workload::OfferedJob offer{1, 0, 0.0};
    std::size_t job = 0;
    std::size_t generation = 0;
    std::vector<std::unique_ptr<fleet::detail::Tenant>> slots;
    std::vector<fleet::ArbitrationLease> leases(kSlots);
    std::vector<std::size_t> visits(kSlots, 0);
    for (std::size_t i = 0; i < kSlots; ++i) {
        slots.push_back(fleet::detail::makeTenant(options, f.app, f.table,
                                                  f.model, host));
        fleet::detail::assignJob(*slots.back(), options, host, leases[i],
                                 job++, 0, 0, 0.0, offer, 0.0);
    }
    std::size_t beats = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        fleet::detail::Tenant &tenant = *slots[next];
        if (tenant.done) {
            fleet::detail::assignJob(tenant, options, host, leases[next],
                                     job++, 0, 0, 0.0, offer, 0.0);
            visits[next] = 0;
        }
        if (visits[next]++ % 3 == 0) {
            const bool odd = ++generation % 2 == 1;
            fleet::ArbitrationLease &lease = leases[next];
            lease.generation = generation;
            lease.share = odd ? 0.5 : 1.0;
            lease.utilization = odd ? 0.25 : 0.125;
            lease.pstate_cap = odd ? 1 : 0;
            lease.pause_ratio = odd ? 0.25 : 0.0;
        }
        const std::size_t before = tenant.record.beats;
        tenant.slice_deadline_s = tenant.machine.now() + slice_s;
        fleet::detail::runSlice(tenant);
        beats += tenant.record.beats - before;
        next = (next + 1) % kSlots;
    }
    state.SetItemsProcessed(beats);
}
BENCHMARK(BM_FleetTenants1024RoundRobin_Slices10);

/** A no-op observer: pure dispatch cost of the seam. */
static void
BM_Session256Beats_NoopObserver(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    class Noop final : public core::RunObserver
    {
    };
    Noop noop;
    session.observe(noop);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
    countBeats(state);
}
BENCHMARK(BM_Session256Beats_NoopObserver);

/** The full trace recorder (the pre-redesign always-on behaviour). */
static void
BM_Session256Beats_TraceRecorder(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    core::BeatTraceRecorder recorder;
    session.observe(recorder);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
    countBeats(state);
}
BENCHMARK(BM_Session256Beats_TraceRecorder);

// ---------------------------------------------------------------------------
// Structured trace sink (obs/trace_sink.h): the per-beat cost of the
// fleet tracing layer, masked off and fully on. With every category
// masked off, each would-be event must cost one branch in
// TraceSink::wants — the ceiling check below fails the binary if the
// masked-off probe regresses past a pinned per-beat budget.
// ---------------------------------------------------------------------------

/** Categories all masked off: the tracing-disabled fast path. */
static void
BM_Session256Beats_TraceProbeOff(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    obs::TraceConfig config;
    config.categories = 0;
    obs::TraceSink sink(config);
    obs::TraceProbe probe(sink, obs::TraceProbe::Identity{0});
    session.observe(probe);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
    countBeats(state);
}
BENCHMARK(BM_Session256Beats_TraceProbeOff);

/** Every category on (including the per-beat firehose); each run's
 *  records are flushed into the sink, which is then cleared to bound
 *  memory. */
static void
BM_Session256Beats_TraceProbeAll(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    obs::TraceSink sink;
    obs::TraceProbe probe(sink, obs::TraceProbe::Identity{0});
    session.observe(probe);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
        probe.flush();
        sink.beginServe();
    }
    countBeats(state);
}
BENCHMARK(BM_Session256Beats_TraceProbeAll);

/** Wall-clock seconds for @p batch back-to-back 256-beat runs. */
double
timeSessionBatch(core::Session &session, std::size_t batch)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The pinned overhead ceiling: a session run with a trace probe whose
 * categories are all masked off may cost at most 25% + 150 ns/beat
 * over the no-observer baseline (best of 5 batches each, interleaved
 * to share thermal conditions). Generous against timer noise on
 * shared CI runners, yet tight enough that any per-beat allocation or
 * record construction sneaking into the disabled path trips it.
 */
int
checkTracingOverheadCeiling()
{
    constexpr std::size_t kBatch = 2000;
    constexpr int kRounds = 5;
    constexpr double kRelativeSlack = 0.25;
    constexpr double kAbsoluteSlackNsPerBeat = 150.0;

    SessionFixture f;
    core::Session plain(f.app, f.table, f.model);
    core::Session probed(f.app, f.table, f.model);
    obs::TraceConfig config;
    config.categories = 0;
    obs::TraceSink sink(config);
    obs::TraceProbe probe(sink, obs::TraceProbe::Identity{0});
    probed.observe(probe);

    // Warm up both paths, then interleave the timed rounds.
    timeSessionBatch(plain, kBatch / 4);
    timeSessionBatch(probed, kBatch / 4);
    double best_plain = 1e300;
    double best_probed = 1e300;
    for (int round = 0; round < kRounds; ++round) {
        best_plain = std::min(best_plain,
                              timeSessionBatch(plain, kBatch));
        best_probed = std::min(best_probed,
                               timeSessionBatch(probed, kBatch));
    }

    const double beats =
        static_cast<double>(kBatch) *
        static_cast<double>(kSessionUnits);
    const double delta_ns_per_beat =
        1e9 * (best_probed - best_plain) / beats;
    const double ceiling = best_plain * (1.0 + kRelativeSlack) +
        kAbsoluteSlackNsPerBeat * 1e-9 * beats;
    const bool ok = best_probed <= ceiling;
    std::printf("\ntracing-disabled overhead: %.1f ns/beat over the "
                "no-observer baseline (ceiling: 25%% + %.0f ns/beat) "
                "-- %s\n",
                delta_ns_per_beat, kAbsoluteSlackNsPerBeat,
                ok ? "ok" : "REGRESSED");
    return ok ? 0 : 1;
}

/**
 * Most operator new calls one tenant slot build (detail::makeTenant on
 * the session fixture) may make: its app clone, bindings, session,
 * policy, strategy, monitor and gate. Measured when slots began to
 * share their knob table's recorded values instead of copying them;
 * raise it only with a reason.
 */
constexpr std::size_t kSlotBuildAllocations = 10;

/**
 * The fleet's allocation ceiling, on the session fixture: building one
 * tenant slot may allocate at most kSlotBuildAllocations times, and a
 * job on a slot that has served one before — assignJob, runSlice in
 * ten-beat slices to completion under a lease rewritten every third
 * slice, then the release's copy of the record into its report slot —
 * may not allocate at all. Prints both counts.
 */
int
checkTenantAllocations()
{
    SessionFixture f;
    fleet::ServerOptions options;
    options.tenants = {1};
    const sim::Machine::Config host;
    fleet::ArbitrationLease lease; // The host's lease.
    const workload::OfferedJob offer{1, 0, 0.0};
    const double slice_s = 10.0 * 100.0 / host.scale.maxHz();
    constexpr std::size_t kJobs = 3;
    std::vector<fleet::JobRecord> records(kJobs);

    std::size_t before = g_allocations.load();
    const auto tenant = fleet::detail::makeTenant(options, f.app, f.table,
                                                  f.model, host);
    const std::size_t slot_build = g_allocations.load() - before;

    std::size_t generation = 0;
    std::size_t later_jobs = 0; // Jobs after the slot's first.
    for (std::size_t job = 0; job < kJobs; ++job) {
        before = g_allocations.load();
        fleet::detail::assignJob(*tenant, options, host, lease, job, 0, 0,
                                 0.0, offer, 0.0);
        for (std::size_t slice = 0; !tenant->done; ++slice) {
            if (slice % 3 == 0) {
                const bool odd = ++generation % 2 == 1;
                lease.generation = generation;
                lease.share = odd ? 0.5 : 1.0;
                lease.utilization = odd ? 0.25 : 0.125;
                lease.pstate_cap = odd ? 1 : 0;
                lease.pause_ratio = odd ? 0.25 : 0.0;
            }
            tenant->slice_deadline_s = tenant->machine.now() + slice_s;
            fleet::detail::runSlice(*tenant);
        }
        records[job] = tenant->record;
        if (job > 0)
            later_jobs += g_allocations.load() - before;
    }
    benchmark::DoNotOptimize(records.data());

    const bool ok =
        slot_build <= kSlotBuildAllocations && later_jobs == 0;
    std::printf("tenant allocations: %zu per slot build (ceiling %zu), "
                "%zu over %zu jobs after the slot's first (ceiling 0) "
                "-- %s\n",
                slot_build, kSlotBuildAllocations, later_jobs, kJobs - 1,
                ok ? "ok" : "REGRESSED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv, {}, "usage: %s\n");
    powerdial::microbench::RunAll();
    const int tracing = checkTracingOverheadCeiling();
    const int allocations = checkTenantAllocations();
    return tracing != 0 ? tracing : allocations;
}

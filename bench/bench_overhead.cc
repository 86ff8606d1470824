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
 * attached.
 *
 * Times everything with the harness in vendor/microbench.h, then runs
 * the tracing-disabled ceiling check below; the exit status is the
 * check's.
 */
#include "vendor/microbench.h"

#include <algorithm>
#include <chrono>

#include "apps/swaptions/pricer.h"
#include "core/actuation_strategy.h"
#include "core/control_policy.h"
#include "core/controller.h"
#include "core/knob.h"
#include "core/session.h"
#include "heartbeats/heartbeat.h"
#include "obs/trace_sink.h"

using namespace powerdial;

namespace {

static void
BM_HeartbeatEmission(benchmark::State &state)
{
    hb::Monitor monitor(20, {1.0, 1.0});
    double t = 0.0;
    for (auto _ : state) {
        t += 1e-3;
        benchmark::DoNotOptimize(monitor.beat(t));
    }
}
BENCHMARK(BM_HeartbeatEmission);

static void
BM_ControllerStep(benchmark::State &state)
{
    core::ControllerConfig cc;
    cc.baseline_rate = 1000.0;
    cc.target_rate = 1000.0;
    cc.max_speedup = 50.0;
    core::HeartRateController controller(cc);
    double rate = 900.0;
    for (auto _ : state) {
        rate = rate < 1000.0 ? 1100.0 : 900.0;
        benchmark::DoNotOptimize(controller.update(rate));
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
    double cmd = 1.0;
    for (auto _ : state) {
        cmd = cmd > 9.0 ? 1.0 : cmd + 0.37;
        benchmark::DoNotOptimize(strategy.plan(cmd));
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
}
BENCHMARK(BM_Session256Beats_NoObserver);

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
}
BENCHMARK(BM_Session256Beats_TraceRecorder);

// ---------------------------------------------------------------------------
// Structured trace sink (obs/trace_sink.h): the per-beat cost of the
// fleet tracing layer in its three modes. With every category masked
// off, each would-be event must cost one branch in TraceSink::wants —
// the ceiling check below fails the binary if the masked-off probe
// regresses past a pinned per-beat budget.
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
}
BENCHMARK(BM_Session256Beats_TraceProbeOff);

/** Every category on (including the per-beat firehose), unbounded
 *  shards; beginServe resets the shard per run to bound memory. */
static void
BM_Session256Beats_TraceProbeAll(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    obs::TraceSink sink;
    for (auto _ : state) {
        sink.beginServe(1);
        obs::TraceProbe probe(sink, obs::TraceProbe::Identity{0});
        session.observe(probe);
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
}
BENCHMARK(BM_Session256Beats_TraceProbeAll);

/** Flight-recorder mode: everything on, last 64 records kept. */
static void
BM_Session256Beats_TraceProbeRing(benchmark::State &state)
{
    SessionFixture f;
    core::Session session(f.app, f.table, f.model);
    obs::TraceConfig config;
    config.ring_capacity = 64;
    obs::TraceSink sink(config);
    obs::TraceProbe probe(sink, obs::TraceProbe::Identity{0});
    session.observe(probe);
    for (auto _ : state) {
        sim::Machine machine;
        benchmark::DoNotOptimize(session.run(1, machine));
    }
}
BENCHMARK(BM_Session256Beats_TraceProbeRing);

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

} // namespace

int
main()
{
    powerdial::microbench::RunAll();
    return checkTracingOverheadCeiling();
}

/**
 * @file
 * PowerDial benchmark program.
 *
 *   powerdial_perfbench --workload W --seed N --seconds S --trace 0|1
 *                       [--trace-out FILE]
 *
 * Builds workload W's inputs from seed N (repeatedly, before and
 * between timed passes; the median is the set-up time), runs one
 * untimed reference pass, then timed passes until S seconds have
 * elapsed, and checks every operation's outputs: per-job invariants on
 * every serve, and every later pass and a two-thread re-run
 * reproducing the reference digests exactly.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 records spans
 * around every call into a layer (tracer.h) and prints the per-layer
 * metrics, optionally writing the spans as a Chrome trace to FILE. The
 * last line of stdout is one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

using namespace perfbench;

namespace {

// Set-up runs kMinSetups times before the measurement and again between
// timed passes while it has taken less than kSetupShare of the measuring
// time, so its median samples the whole run rather than one moment.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinPasses = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet-scale|fleet-slo|calibrate "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv0);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            have_seed = *value != '\0' && *end == '\0';
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (*end != '\0')
                usage(argv[0]);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage(argv[0]);
            options.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            usage(argv[0]);
        }
    }
    if (argc % 2 == 0 || !have_seed || !(options.seconds > 0.0))
        usage(argv[0]);
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fleet-scale")
        return makeFleetScale();
    if (name == "fleet-slo")
        return makeFleetSlo();
    if (name == "calibrate")
        return makeCalibrate();
    return nullptr;
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * CPU time of the calling thread, ms. Host times are taken on this
 * clock: the measured work is single-threaded, and unlike wall-clock it
 * excludes the time a virtual machine's vCPU is descheduled by its host
 * (steal), which doubled wall-clock for tens of seconds at a time on a
 * shared 4-vCPU KVM guest.
 */
double
cpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
        static_cast<double>(now.tv_nsec) / 1e6;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of unsorted @p values, p in (0, 100];
 *  NaN when there are none. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric
{
    double value;
    const char *unit;
};

/** Everything one run measured, before it becomes metrics. */
struct RunRecord
{
    std::vector<double> setup_s;
    std::vector<OpResult> reference; //!< The untimed first pass.
    /** Host CPU time of every timed run, per operation index. */
    std::vector<std::vector<double>> op_ms;
    std::size_t passes = 0; //!< Timed passes.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    std::size_t first_pass_op = 0; //!< Span op id of reference op 0.
};

/** Run one operation, folding its failures into the record. */
OpResult
runChecked(Workload &workload, std::size_t index, const RunContext &context,
           RunRecord &record)
{
    ++record.attempted;
    OpResult result;
    try {
        result = workload.run(index, context);
    } catch (const std::exception &error) {
        result.errors.push_back(error.what());
    }
    if (!result.errors.empty()) {
        ++record.failed;
        for (const auto &error : result.errors)
            record.errors.push_back("op " + std::to_string(index) + ": " +
                                    error);
    }
    return result;
}

void
expectDigest(const OpResult &result, const OpResult &reference,
             std::size_t index, const char *what, RunRecord &record)
{
    if (result.errors.empty() && result.digest != reference.digest) {
        ++record.failed;
        record.errors.push_back("op " + std::to_string(index) + ": " +
                                what + " differs from the reference pass");
    }
}

RunRecord
measure(const Options &options, Tracer *tracer,
        std::unique_ptr<Workload> &workload)
{
    RunRecord record;
    std::size_t op_id = 0;
    const auto setUp = [&](std::unique_ptr<Workload> &target) {
        target = makeWorkload(options.workload);
        RunContext context;
        context.tracer = tracer;
        context.op = op_id++;
        const double start = cpuMs();
        target->setUp(options.seed, context);
        const double ms = cpuMs() - start;
        record.setup_s.push_back(ms / 1e3);
        return ms;
    };
    for (std::size_t i = 0; i < kMinSetups; ++i)
        setUp(workload);

    const std::size_t ops = workload->operations();
    record.op_ms.resize(ops);
    const auto runPass = [&](bool reference) {
        for (std::size_t i = 0; i < ops; ++i) {
            RunContext context;
            context.tracer = tracer;
            context.op = op_id++;
            ScopedSpan span(tracer, "op", kNoSpan, context.op);
            context.parent = span.id();
            const double start = cpuMs();
            OpResult result = runChecked(*workload, i, context, record);
            const double ms = cpuMs() - start;
            if (reference) {
                record.reference.push_back(std::move(result));
            } else {
                record.op_ms[i].push_back(ms);
                expectDigest(result, record.reference[i], i, "a timed pass",
                             record);
            }
        }
    };

    record.first_pass_op = op_id;
    runPass(true);
    const auto start = Clock::now();
    double setup_ms = 0.0;
    while (record.passes < kMinPasses ||
           msSince(start) < options.seconds * 1e3) {
        runPass(false);
        ++record.passes;
        if (setup_ms < kSetupShare * msSince(start)) {
            std::unique_ptr<Workload> spare;
            setup_ms += setUp(spare);
        }
    }

    // Thread-count invariance and the arbiter's cap, outside the timing.
    RunContext context;
    context.threads = 2;
    context.check_budgets = true;
    const OpResult rerun = runChecked(*workload, 0, context, record);
    expectDigest(rerun, record.reference[0], 0, "a two-thread re-run",
                 record);
    return record;
}

std::map<std::string, Metric>
endToEndMetrics(const RunRecord &record, std::size_t ops_per_pass)
{
    // Each operation's best time over the timed passes: the work is
    // deterministic, so every pass does the same work, and co-tenants
    // of a shared host only ever add time — for seconds at a stretch,
    // which a median over one run's passes does not filter out.
    double cpu_ms = 0.0;
    for (const auto &times : record.op_ms)
        cpu_ms += *std::min_element(times.begin(), times.end());
    cpu_ms /= static_cast<double>(ops_per_pass);
    double p99 = 0.0;
    double offered = 0.0, served = 0.0, met = 0.0, qos = 0.0, energy = 0.0;
    for (const auto &op : record.reference) {
        p99 += percentile(op.slowdowns, 99.0) /
            static_cast<double>(ops_per_pass);
        offered += static_cast<double>(op.offered);
        served += static_cast<double>(op.served);
        met += static_cast<double>(op.slo_met);
        qos += op.qos_loss_sum;
        energy += op.energy_sum_j;
    }
    return {
        {"cpu_ms", {cpu_ms, "ms"}},
        {"setup_s", {median(record.setup_s), "s"}},
        {"slo_met_pct", {100.0 * met / offered, "%"}},
        {"p99_slowdown", {p99, "x"}},
        {"qos_loss_pct", {100.0 * qos / served, "%"}},
        {"energy_per_job_j", {energy / served, "J"}},
    };
}

std::map<std::string, Metric>
perLayerMetrics(const RunRecord &record, const Tracer &tracer,
                std::size_t ops_per_pass)
{
    // Self time per operation (or set-up round) that entered the layer.
    const auto &spans = tracer.spans();
    const auto self = tracer.selfMs();
    std::map<std::string, double> self_total;
    std::map<std::string, std::set<std::size_t>> ops_seen;
    std::map<std::string, double> first_pass_calls;
    const std::size_t pass_end = record.first_pass_op + ops_per_pass;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        self_total[span.name] += self[i];
        ops_seen[span.name].insert(span.op);
        if (span.op >= record.first_pass_op && span.op < pass_end)
            first_pass_calls[span.name] += static_cast<double>(span.calls);
    }
    const auto perOp = [&](const char *name) {
        const auto it = ops_seen.find(name);
        return it == ops_seen.end()
            ? 0.0
            : self_total[name] / static_cast<double>(it->second.size());
    };
    double op_ms = 0.0, ops = 0.0;
    for (const Span &span : spans)
        if (span.name == "op") {
            op_ms += span.ms();
            ++ops;
        }

    double offered = 0.0, served = 0.0, latency = 0.0, queue = 0.0,
           deficit = 0.0, pause = 0.0, beats = 0.0, leases = 0.0,
           rounds = 0.0, runs = 0.0;
    for (const auto &op : record.reference) {
        offered += static_cast<double>(op.offered);
        served += static_cast<double>(op.served);
        latency += op.latency_sum_s;
        queue += op.queue_sum_s;
        deficit += op.deficit_sum_s;
        pause += op.pause_sum_s;
        beats += static_cast<double>(op.beats);
        leases += static_cast<double>(op.lease_updates);
        rounds += static_cast<double>(op.arbitration_rounds);
        runs += static_cast<double>(op.calibration_runs);
    }
    return {
        {"op_ms", {op_ms / ops, "ms"}},
        {"workload_ms", {perOp("workload"), "ms"}},
        {"identify_ms", {perOp("identify"), "ms"}},
        {"calibrate_ms", {perOp("calibrate"), "ms"}},
        {"serve_self_ms", {perOp("serve"), "ms"}},
        {"admission_self_ms", {perOp("admission"), "ms"}},
        {"placement_ms", {perOp("placement"), "ms"}},
        {"admission_calls", {first_pass_calls["admission"], "count"}},
        {"placement_calls", {first_pass_calls["placement"], "count"}},
        {"calibration_runs", {runs, "count"}},
        {"arbitration_rounds", {rounds, "count"}},
        {"jobs_offered", {offered, "count"}},
        {"admit_ratio", {served / offered, "ratio"}},
        {"tenant_beats", {beats, "count"}},
        {"lease_updates", {leases, "count"}},
        {"sim_queue_pct", {100.0 * queue / latency, "%"}},
        {"sim_deficit_pct", {100.0 * deficit / latency, "%"}},
        {"sim_pause_pct", {100.0 * pause / latency, "%"}},
        {"passes", {static_cast<double>(record.passes), "count"}},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    if (makeWorkload(options.workload) == nullptr)
        usage(argv[0]);

    Tracer tracer;
    std::unique_ptr<Workload> workload;
    RunRecord record;
    try {
        record = measure(options, options.trace ? &tracer : nullptr,
                         workload);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "set-up failed: %s\n", error.what());
        return 1;
    }
    const std::size_t ops = workload->operations();
    auto metrics = options.trace ? perLayerMetrics(record, tracer, ops)
                                 : endToEndMetrics(record, ops);
    for (auto &[name, metric] : metrics) {
        if (!std::isfinite(metric.value)) {
            record.errors.push_back(name + " is not a finite number");
            metric.value = 0.0;
        }
    }

    if (options.trace && !options.trace_out.empty()) {
        std::ofstream out(options.trace_out);
        tracer.writeChromeTrace(out);
    }
    const std::size_t shown = std::min<std::size_t>(record.errors.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::fprintf(stderr, "check failed: %s\n", record.errors[i].c_str());
    if (shown < record.errors.size())
        std::fprintf(stderr, "... and %zu more failed checks\n",
                     record.errors.size() - shown);
    std::fprintf(stderr, "%s seed %llu: %zu timed passes; best ms per "
                 "op:", options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 record.passes);
    for (const auto &times : record.op_ms)
        std::fprintf(stderr, " %.2f",
                     *std::min_element(times.begin(), times.end()));
    std::fprintf(stderr, "\n");

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                record.errors.empty() ? "true" : "false", record.attempted,
                record.failed);
    const char *sep = "";
    for (const auto &[name, metric] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), metric.value, metric.unit);
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}

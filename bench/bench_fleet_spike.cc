/**
 * @file
 * Fleet bench: a consolidated swaptions fleet rides a load spike
 * under a cluster-wide power cap.
 *
 * The datacenter scenario behind sections 3 and 5.5, closed into one
 * loop by the fleet subsystem: an open-loop Poisson request stream
 * (workload::makePoissonArrivals over a spiky load trace) is served
 * by a consolidated two-machine fleet whose shared power cap a
 * fleet::PowerArbiter re-splits every epoch, against an
 * over-provisioned four-machine uncapped reference. The consolidated
 * serves use power-aware placement (which packs machines, making the
 * budget split genuinely asymmetric) and compare all three arbiter
 * policies; the expected shape is the QoS-feedback split dominating
 * the load-blind uniform split on tail latency and QoS loss. With
 * one machine hosting every tenant, the two informed policies
 * allocate identically (all headroom to the hot machine) and their
 * rows coincide — the feedback term's distinct budget-shifting
 * behaviour is pinned by the arbiter unit tests instead.
 *
 * Tenants are persistent: with --epoch-frac below 100 every job spans
 * several arbitration epochs and adopts each re-split budget mid-run
 * through its lease (the cross-epoch scenario CI replays against
 * bench/golden/fleet_spike_crossepoch.txt). --queue-depth bounds each
 * machine's run queue; overload arrivals are shed and counted.
 *
 * Output is byte-identical for --threads=1 and --threads=N (the CI
 * fleet-smoke job asserts this, and diffs the summary section against
 * bench/golden/fleet_spike_steps50.txt).
 *
 * --engine selects the serve schedule: `epoch` (synchronous round
 * loop) or `event` (discrete-event engine, its own golden
 * fleet_spike_event.txt). Wall-clock timings go to stderr only,
 * keeping stdout deterministic for the golden comparisons.
 *
 * --fleet=N switches to the scale scenario: N machines serving a
 * Poisson stream of synthetic microsim tenants (defined below; real
 * swaptions jobs would take hours at this scale). With
 * `--fleet=1000 --steps=100 --peak-rate=4000` the event engine pushes
 * ~10^5 jobs through a 1000-machine cluster; the wall-clock line on
 * stderr is the headline number.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "class_mix.h"
#include "fleet/server.h"
#include "microsim_app.h"
#include "sim/machine.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

struct FleetBenchOptions
{
    std::size_t steps = 96;  //!< Load-trace length, epochs.
    std::size_t threads = 0; //!< Tenant-session workers (0 = all).
    /**
     * Epoch length as a percentage of one job's baseline duration.
     * 100 (default) keeps roughly one job per epoch; lower values
     * make jobs span multiple epochs, exercising the cross-epoch
     * lease path (e.g. 30 means every job crosses >= 3 boundaries).
     */
    std::size_t epoch_frac_pct = 100;
    std::size_t queue_depth = 0; //!< Per-machine bound (0 = unbounded).
    fleet::EngineMode engine = fleet::EngineMode::Epoch;
    std::size_t sample_stride = 1;  //!< Event-engine report stride.
    std::size_t fleet = 0;          //!< 0 = comparison bench; else scale.
    std::size_t peak_rate = 0;      //!< Poisson peak (0 = mode default).
    /** Heterogeneous fleet spec, e.g. "big:2,little:2" (empty =
     *  homogeneous default; overrides the per-case machine counts). */
    std::string class_mix;
    ObsOptions obs; //!< --trace / --trace-jsonl / --metrics outputs.
};

const char *
engineLabel(const FleetBenchOptions &options)
{
    return options.engine == fleet::EngineMode::Epoch ? "epoch"
                                                      : "event";
}

FleetBenchOptions
parseFleetOptions(int argc, char **argv)
{
    FleetBenchOptions options;
    std::vector<Flag> flags = {
        countFlag("--steps=", options.steps, 1),
        countFlag("--threads=", options.threads),
        countFlag("--epoch-frac=", options.epoch_frac_pct, 1),
        countFlag("--queue-depth=", options.queue_depth),
        {"--engine=",
         [&options](const char *value) {
             if (std::strcmp(value, "epoch") == 0)
                 options.engine = fleet::EngineMode::Epoch;
             else if (std::strcmp(value, "event") == 0)
                 options.engine = fleet::EngineMode::Event;
             else
                 return false;
             return true;
         }},
        countFlag("--sample-stride=", options.sample_stride, 1),
        countFlag("--fleet=", options.fleet),
        countFlag("--peak-rate=", options.peak_rate),
        textFlag("--class-mix=", options.class_mix),
    };
    addObsFlags(flags, options.obs);
    parseFlags(argc, argv, flags,
               "usage: %s [--steps=N] [--threads=N | -t N]\n"
               "          [--epoch-frac=P] [--queue-depth=N]\n"
               "          [--engine=epoch|event] "
               "[--sample-stride=N]\n"
               "          [--fleet=N] [--peak-rate=N]\n"
               "  steps       load-trace epochs (default 96)\n"
               "  threads     tenant-session workers "
               "(0 = all hardware contexts, 1 = serial)\n"
               "  epoch-frac  epoch length as %% of one job's "
               "baseline duration (default 100;\n"
               "              lower => jobs span multiple epochs "
               "and feel lease updates mid-run)\n"
               "  queue-depth max in-flight jobs per machine "
               "(default 0 = unbounded; overload sheds)\n"
               "  engine      serve schedule: epoch (round loop) "
               "or event (discrete-event)\n"
               "  sample-stride  epochs per report row "
               "(event engine only; default 1)\n"
               "  fleet       scale mode: N machines serving "
               "synthetic microsim tenants\n"
               "  peak-rate   Poisson peak arrivals per epoch "
               "(default 12, or 1000 with --fleet)\n"
               "  class-mix   heterogeneous fleet from the "
               "big.LITTLE catalog, e.g. big:2,little:2\n"
               "              (overrides the machine counts; "
               "absent = homogeneous default)\n",
               obsUsage());
    return options;
}

/** Apply the engine selection to one serve's options. */
void
applyEngine(fleet::ServerOptions &server_options,
            const FleetBenchOptions &options)
{
    server_options.engine = options.engine;
    // Ignored under the epoch schedule.
    server_options.event.sample_stride = options.sample_stride;
}

/**
 * Serve and report the wall-clock on stderr (never stdout: the CI
 * fleet-smoke job diffs stdout byte-for-byte against goldens and
 * across thread counts, and timings are the one nondeterministic
 * output).
 */
fleet::FleetReport
timedServe(fleet::Server &server,
           const std::vector<std::size_t> &arrivals, const char *label,
           const FleetBenchOptions &options)
{
    const auto start = std::chrono::steady_clock::now();
    auto report = server.serve(arrivals);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::fprintf(stderr, "[bench] %-22s engine=%-6s wall-clock %.3f s\n",
                 label, engineLabel(options), wall_s);
    return report;
}

/** One serve configuration of the comparison table. */
struct FleetCase
{
    const char *label;
    std::size_t machines;
    double cap_watts;
    fleet::ArbiterPolicy policy;
    bool power_aware;
};

void
printEpochs(const fleet::FleetReport &report)
{
    std::printf("%6s %9s %7s %10s %12s %10s %8s\n", "epoch",
                "arrivals", "active", "watts", "fleet_rate",
                "qos_loss%", "pause");
    const std::size_t stride =
        std::max<std::size_t>(1, report.epochs.size() / 12);
    for (std::size_t e = 0; e < report.epochs.size(); e += stride) {
        const auto &epoch = report.epochs[e];
        std::printf("%6zu %9zu %7zu %10.1f %12.1f %10.3f %8.2f\n",
                    epoch.epoch, epoch.arrivals, epoch.active,
                    epoch.watts, epoch.fleet_rate,
                    100.0 * epoch.mean_qos_loss,
                    epoch.max_pause_ratio);
    }
}

/**
 * Scale mode: --fleet=N machines serve a Poisson stream of microsim
 * jobs under a cluster-wide cap at 60% of aggregate peak power. The
 * target scenario is `--fleet=1000 --steps=100 --peak-rate=4000
 * --engine=event`: ~10^5 jobs through 1000 machines, wall-clock on
 * stderr.
 */
int
runScaleFleet(const FleetBenchOptions &options)
{
    banner("Fleet scale: synthetic microsim tenants");
    MicrosimApp app;
    auto cal = calibrateTransfer(app, app, -1.0, options.threads);
    const auto &model = cal.training.model;

    workload::LoadTraceParams trace_params;
    trace_params.steps = options.steps;
    trace_params.base_utilization = 0.25;
    trace_params.spike_probability = 0.05;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = static_cast<double>(
        options.peak_rate > 0 ? options.peak_rate : 1000);
    const auto arrivals = workload::makePoissonArrivals(
        workload::makeLoadTrace(trace_params), arrival_params);
    const std::size_t offered =
        std::accumulate(arrivals.begin(), arrivals.end(),
                        std::size_t{0});

    fleet::ServerOptions server_options;
    server_options.machines = options.fleet;
    server_options.threads = options.threads;
    server_options.epoch_seconds =
        static_cast<double>(MicrosimApp::kUnits) /
        model.baselineRate() *
        (static_cast<double>(options.epoch_frac_pct) / 100.0);
    server_options.queue_depth = options.queue_depth;
    const sim::Machine probe(server_options.machine);
    server_options.arbiter.cluster_cap_watts =
        static_cast<double>(options.fleet) * 0.6 *
        probe.powerModel().peakWatts();
    server_options.arbiter.policy = fleet::ArbiterPolicy::QosFeedback;
    applyEngine(server_options, options);
    if (!applyClassMix(server_options, options.class_mix))
        return 2;
    auto obs_sink = makeObsSink(options.obs);
    server_options.trace = obs_sink ? &*obs_sink : nullptr;

    fleet::Server server(app, cal.ident.table, model, server_options);
    const auto report = timedServe(server, arrivals, "scale", options);
    printEpochs(report);
    writeObsOutputs(options.obs, server_options.trace, report);

    banner("scale summary");
    std::printf("machines %zu, epochs %zu, offered %zu jobs\n",
                options.fleet, options.steps, offered);
    std::printf("%6s %6s %8s %10s %12s %10s %10s %10s %10s\n", "jobs",
                "shed", "drained", "watts", "fleet_rate", "p50_lat",
                "p95_lat", "p99_lat", "qos_loss%");
    std::printf("%6zu %6zu %8zu %10.1f %12.1f %10.4f %10.4f %10.4f "
                "%10.3f\n",
                report.total_jobs, report.total_shed,
                report.drained_jobs, report.mean_watts,
                report.mean_fleet_rate, report.p50_latency_s,
                report.p95_latency_s, report.p99_latency_s,
                100.0 * report.mean_qos_loss);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = parseFleetOptions(argc, argv);
    if (options.fleet > 0)
        return runScaleFleet(options);
    banner("Fleet spike: consolidated swaptions fleet under a "
           "cluster power cap");

    // Serving-sized jobs: long enough for several control quanta,
    // short enough that a few hundred of them replay in seconds.
    apps::swaptions::SwaptionsConfig serving_config;
    serving_config.inputs = 8;
    serving_config.swaptions_per_input = 120;
    apps::swaptions::SwaptionsApp app(serving_config);
    auto sweep = makeSwaptions();
    auto cal = calibrateTransfer(*sweep, app, 0.05, options.threads);
    const auto &model = cal.training.model;

    // The offered load: intermittent spikes atop ~25% utilisation,
    // turned into an open-loop Poisson request stream.
    workload::LoadTraceParams trace_params;
    trace_params.steps = options.steps;
    trace_params.base_utilization = 0.25;
    trace_params.spike_probability = 0.05;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = 12.0;
    const auto arrivals = workload::makePoissonArrivals(
        workload::makeLoadTrace(trace_params), arrival_params);

    const std::vector<FleetCase> cases{
        {"4m uncapped", 4, 0.0, fleet::ArbiterPolicy::Uniform, false},
        {"2m cap340 uniform", 2, 340.0, fleet::ArbiterPolicy::Uniform,
         true},
        {"2m cap340 util-prop", 2, 340.0,
         fleet::ArbiterPolicy::UtilizationProportional, true},
        {"2m cap340 qos-fb", 2, 340.0,
         fleet::ArbiterPolicy::QosFeedback, true},
    };

    // One sink across the matrix: beginServe resets it at each serve,
    // so the outputs describe the final case (2m cap340 qos-fb).
    auto obs_sink = makeObsSink(options.obs);

    std::vector<fleet::FleetReport> reports;
    reports.reserve(cases.size());
    for (const FleetCase &fleet_case : cases) {
        banner(fleet_case.label);
        fleet::ServerOptions server_options;
        server_options.machines = fleet_case.machines;
        server_options.threads = options.threads;
        // One epoch = epoch-frac percent of one serving job's
        // baseline duration (the model was calibrated on sweep-sized
        // inputs, so derive it from the transferable per-beat rate,
        // not baselineSeconds()). Below 100%, jobs span several
        // epochs and feel each re-arbitrated lease mid-run.
        server_options.epoch_seconds =
            static_cast<double>(serving_config.swaptions_per_input) /
            model.baselineRate() *
            (static_cast<double>(options.epoch_frac_pct) / 100.0);
        server_options.queue_depth = options.queue_depth;
        server_options.arbiter.cluster_cap_watts =
            fleet_case.cap_watts;
        server_options.arbiter.policy = fleet_case.policy;
        if (fleet_case.power_aware)
            server_options.placement =
                fleet::makePowerAwarePlacement();
        applyEngine(server_options, options);
        if (!applyClassMix(server_options, options.class_mix))
            return 2;
        server_options.trace = obs_sink ? &*obs_sink : nullptr;
        fleet::Server server(app, cal.ident.table, model,
                             server_options);
        reports.push_back(
            timedServe(server, arrivals, fleet_case.label, options));
        printEpochs(reports.back());
    }
    writeObsOutputs(options.obs, obs_sink ? &*obs_sink : nullptr,
                    reports.back());

    banner("summary");
    std::printf("%-22s %6s %6s %10s %12s %10s %10s %10s\n", "fleet",
                "jobs", "shed", "watts", "fleet_rate", "p50_lat",
                "p95_lat", "qos_loss%");
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &report = reports[i];
        std::printf("%-22s %6zu %6zu %10.1f %12.1f %10.3f %10.3f "
                    "%10.3f\n",
                    cases[i].label, report.total_jobs,
                    report.total_shed, report.mean_watts,
                    report.mean_fleet_rate, report.p50_latency_s,
                    report.p95_latency_s,
                    100.0 * report.mean_qos_loss);
    }

    const auto &uniform = reports[1];
    const auto &feedback = reports[3];
    std::printf("\nqos-feedback vs uniform split: p95 latency %.3f s "
                "vs %.3f s (%+.1f%%), mean QoS loss %.3f%% vs %.3f%% "
                "(%+.1f%%)\n",
                feedback.p95_latency_s, uniform.p95_latency_s,
                uniform.p95_latency_s > 0.0
                    ? 100.0 * (feedback.p95_latency_s -
                               uniform.p95_latency_s) /
                        uniform.p95_latency_s
                    : 0.0,
                100.0 * feedback.mean_qos_loss,
                100.0 * uniform.mean_qos_loss,
                uniform.mean_qos_loss > 0.0
                    ? 100.0 * (feedback.mean_qos_loss -
                               uniform.mean_qos_loss) /
                        uniform.mean_qos_loss
                    : 0.0);
    const bool dominates =
        feedback.p95_latency_s < uniform.p95_latency_s ||
        feedback.mean_qos_loss < uniform.mean_qos_loss;
    std::printf("qos-feedback dominates uniform on at least one "
                "metric: %s\n", dominates ? "yes" : "NO");
    std::printf("consolidation: %zu -> %zu machines at %.0f%% of the "
                "reference power\n", cases.front().machines,
                cases.back().machines,
                100.0 * reports.back().mean_watts /
                    reports.front().mean_watts);
    return 0;
}

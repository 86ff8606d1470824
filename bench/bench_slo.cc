/**
 * @file
 * SLO bench: predictive admission control vs blind queue-depth
 * shedding over production-shaped traffic.
 *
 * The admission-control matrix behind the PR-7 seam
 * (fleet/admission.h): a small consolidated fleet of microsim tenants
 * (bench/microsim_app.h) serves two composed traffic shapes
 * (workload::makeTrafficMix) —
 *
 *   - `diurnal`: a day/night swell that crests above the provisioned
 *     capacity at the peak of the cycle;
 *   - `flash`: a flat base with a flash crowd superimposed mid-run,
 *     pushing offered load past 1.0 (open-loop, never clamped);
 *
 * — once under QueueDepthAdmission (the historical blind shedding)
 * and once under PredictiveAdmission (shed only predicted SLO
 * violations, low-priority classes first), on both serve engines
 * (legacy epoch loop and the discrete-event engine). Tenants carry
 * three priority classes with tightening deadlines; the report is the
 * per-class p99 *conditioned on the rejection rate* — lower tail
 * latency is trivial if you reject everything, so each p99 is printed
 * next to the class's rejection rate and the dominance verdict
 * requires the predictive policy to cut top-class p99 without
 * rejecting more top-class traffic.
 *
 * Output is byte-identical for --threads=1 and --threads=N on both
 * engines (the CI slo-smoke job asserts this and diffs the summary
 * against bench/golden/slo_admission.txt). Wall-clock goes to stderr.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "class_mix.h"
#include "fleet/server.h"
#include "microsim_app.h"
#include "workload/traffic_mix.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

struct SloBenchOptions
{
    std::size_t steps = 48;  //!< Traffic-schedule length, epochs.
    std::size_t threads = 0; //!< Tenant-session workers (0 = all).
    /** Heterogeneous fleet spec, e.g. "big:1,little:2" (empty =
     *  the homogeneous two-single-core-machine default). */
    std::string class_mix;
    ObsOptions obs; //!< --trace / --trace-jsonl / --metrics outputs.
};

SloBenchOptions
parseSloOptions(int argc, char **argv)
{
    SloBenchOptions options;
    std::vector<Flag> flags = {
        countFlag("--steps=", options.steps, 1),
        countFlag("--threads=", options.threads),
        textFlag("--class-mix=", options.class_mix),
    };
    addObsFlags(flags, options.obs);
    parseFlags(argc, argv, flags,
               "usage: %s [--steps=N] [--threads=N | -t N] "
               "[--class-mix=SPEC]\n"
               "  steps      traffic-schedule epochs "
               "(default 48)\n"
               "  threads    tenant-session workers "
               "(0 = all hardware contexts, 1 = serial)\n"
               "  class-mix  heterogeneous fleet from the "
               "big.LITTLE catalog, e.g. big:1,little:2\n"
               "             (absent = homogeneous default)\n",
               obsUsage());
    return options;
}

/** The three-class tenant population, deadlines off @p baseline_s. */
std::vector<workload::TenantProfile>
makeProfiles(double baseline_s)
{
    // Popularity (Zipf rank) order. The top class is also the most
    // popular, so protecting it is where admission policy earns its
    // keep; deadlines tighten down the priority ladder.
    return {
        {2, 0, baseline_s * 4.0}, // rank 0: premium traffic.
        {3, 1, baseline_s * 3.0}, // rank 1: standard.
        {2, 2, baseline_s * 2.0}, // rank 2: best-effort...
        {3, 2, baseline_s * 2.0}, // rank 3: ...two tenants of it.
    };
}

/** One traffic shape of the matrix. */
struct TraceShape
{
    const char *label;
    std::vector<std::vector<workload::OfferedJob>> offers;
};

std::vector<TraceShape>
makeShapes(const SloBenchOptions &options, double baseline_s)
{
    const auto profiles = makeProfiles(baseline_s);

    // Diurnal: one full day/night cycle over the schedule, cresting
    // near offered level ~0.95 of peak_rate at midday.
    workload::TrafficMixParams diurnal;
    diurnal.steps = options.steps;
    diurnal.trace.base_utilization = 0.55;
    diurnal.trace.jitter = 0.03;
    diurnal.trace.spike_probability = 0.0;
    diurnal.trace.diurnal_amplitude = 0.4;
    diurnal.trace.diurnal_period = options.steps;
    diurnal.trace.seed = 0x510b001;
    diurnal.peak_rate = 3.5;
    diurnal.seed = 0x510b002;

    // Flash crowd: flat base, one crowd spanning the middle sixth of
    // the schedule that pushes composed load past 1.0.
    workload::TrafficMixParams flash;
    flash.steps = options.steps;
    flash.trace.base_utilization = 0.5;
    flash.trace.jitter = 0.03;
    flash.trace.spike_probability = 0.0;
    flash.trace.seed = 0x510b003;
    flash.flash_crowds = {
        {options.steps / 3, options.steps / 6 + 1, 0.9}};
    flash.peak_rate = 3.5;
    flash.seed = 0x510b004;

    return {
        {"diurnal", workload::makeTrafficMix(diurnal, profiles).offers},
        {"flash", workload::makeTrafficMix(flash, profiles).offers},
    };
}

struct SloCase
{
    const char *trace;
    const char *engine;
    const char *admission;
    fleet::FleetReport report;
};

/** Rejection rate of one class row, percent of its offered jobs. */
double
rejectPct(const fleet::ClassStats &row)
{
    const std::size_t offered = row.jobs + row.shed;
    return offered == 0
        ? 0.0
        : 100.0 * static_cast<double>(row.shed) /
            static_cast<double>(offered);
}

const fleet::ClassStats *
classRow(const fleet::FleetReport &report, std::size_t job_class)
{
    for (const auto &row : report.classes)
        if (row.job_class == job_class)
            return &row;
    return nullptr;
}

void
printClassTable(const fleet::FleetReport &report)
{
    std::printf("%6s %6s %6s %8s %10s %10s %10s\n", "class", "jobs",
                "shed", "reject%", "p50_lat", "p95_lat", "p99_lat");
    for (const auto &row : report.classes)
        std::printf("%6zu %6zu %6zu %8.1f %10.4f %10.4f %10.4f\n",
                    row.job_class, row.jobs, row.shed, rejectPct(row),
                    row.p50_latency_s, row.p95_latency_s,
                    row.p99_latency_s);
    std::printf("total jobs %zu, shed %zu, drained %zu\n",
                report.total_jobs, report.total_shed,
                report.drained_jobs);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = parseSloOptions(argc, argv);
    banner("SLO admission: predictive vs queue-depth over shaped "
           "traffic");

    MicrosimApp app;
    auto cal = calibrateTransfer(app, app, -1.0, options.threads);
    const auto &model = cal.training.model;
    const double baseline_s =
        static_cast<double>(MicrosimApp::kUnits) /
        model.baselineRate();

    const auto shapes = makeShapes(options, baseline_s);

    struct EngineCase
    {
        const char *label;
        fleet::EngineMode mode;
    };
    const EngineCase engines[] = {
        {"epoch", fleet::EngineMode::Epoch},
        {"event", fleet::EngineMode::Event},
    };
    struct AdmissionCase
    {
        const char *label;
        fleet::AdmissionFactory factory;
    };
    const AdmissionCase admissions[] = {
        {"queue-depth", fleet::makeQueueDepthAdmission()},
        {"predictive", fleet::makePredictiveAdmission()},
    };

    // One sink across the matrix: beginServe resets it at each serve,
    // so the outputs describe the final cell (flash/event/predictive).
    auto obs_sink = makeObsSink(options.obs);

    std::vector<SloCase> cases;
    for (const auto &shape : shapes) {
        for (const auto &engine : engines) {
            for (const auto &admission : admissions) {
                fleet::ServerOptions server_options;
                // Single-core machines keep the fleet in the regime
                // where occupancy outruns the knob's catch-up range,
                // so predicted latency actually climbs with load (on
                // many-core hosts the model predicts the controller
                // can hide the slowdown, and admission cannot
                // discriminate occupancy).
                server_options.machines = 2;
                server_options.machine.cores = 1;
                server_options.threads = options.threads;
                server_options.epoch_seconds = baseline_s * 0.5;
                server_options.queue_depth = 12;
                server_options.admission = admission.factory;
                server_options.engine = engine.mode;
                if (!applyClassMix(server_options,
                                   options.class_mix))
                    return 2;
                server_options.trace =
                    obs_sink ? &*obs_sink : nullptr;

                std::string label = std::string(shape.label) + " / " +
                    engine.label + " / " + admission.label;
                banner(label);
                fleet::Server server(app, cal.ident.table, model,
                                     server_options);
                const auto start = std::chrono::steady_clock::now();
                auto report = server.serve(shape.offers);
                const double wall_s = std::chrono::duration<double>(
                                          std::chrono::steady_clock::
                                              now() -
                                          start)
                                          .count();
                std::fprintf(stderr,
                             "[bench] %-28s wall-clock %.3f s\n",
                             label.c_str(), wall_s);
                printClassTable(report);
                cases.push_back({shape.label, engine.label,
                                 admission.label, std::move(report)});
            }
        }
    }

    writeObsOutputs(options.obs, obs_sink ? &*obs_sink : nullptr,
                    cases.back().report);

    banner("slo summary");
    std::printf("%-8s %-6s %-12s %6s %6s %8s %10s %10s %8s\n", "trace",
                "engine", "admission", "jobs", "shed", "c0_rej%",
                "c0_p95", "c0_p99", "all_rej%");
    for (const auto &slo_case : cases) {
        const auto *top = classRow(slo_case.report, 0);
        const std::size_t offered =
            slo_case.report.total_jobs + slo_case.report.total_shed;
        std::printf(
            "%-8s %-6s %-12s %6zu %6zu %8.1f %10.4f %10.4f %8.1f\n",
            slo_case.trace, slo_case.engine, slo_case.admission,
            slo_case.report.total_jobs, slo_case.report.total_shed,
            top != nullptr ? rejectPct(*top) : 0.0,
            top != nullptr ? top->p95_latency_s : 0.0,
            top != nullptr ? top->p99_latency_s : 0.0,
            offered == 0
                ? 0.0
                : 100.0 *
                    static_cast<double>(slo_case.report.total_shed) /
                    static_cast<double>(offered));
    }

    // The acceptance verdict: on every (trace, engine) cell the
    // predictive policy must deliver a lower top-class p99 without a
    // higher top-class rejection rate — better tail latency *bought by
    // shedding the right jobs*, not by rejecting more premium traffic.
    bool all_dominate = true;
    std::printf("\n");
    for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
        const auto &blind = cases[i];
        const auto &slo = cases[i + 1];
        const auto *blind_top = classRow(blind.report, 0);
        const auto *slo_top = classRow(slo.report, 0);
        const bool dominates = blind_top != nullptr &&
            slo_top != nullptr &&
            slo_top->p99_latency_s < blind_top->p99_latency_s &&
            rejectPct(*slo_top) <= rejectPct(*blind_top);
        all_dominate = all_dominate && dominates;
        std::printf("predictive dominates queue-depth on %s/%s "
                    "(c0 p99 %.4f < %.4f, c0 rej %.1f%% <= %.1f%%): "
                    "%s\n",
                    blind.trace, blind.engine,
                    slo_top != nullptr ? slo_top->p99_latency_s : 0.0,
                    blind_top != nullptr ? blind_top->p99_latency_s
                                         : 0.0,
                    slo_top != nullptr ? rejectPct(*slo_top) : 0.0,
                    blind_top != nullptr ? rejectPct(*blind_top) : 0.0,
                    dominates ? "yes" : "NO");
    }
    std::printf("predictive dominates on every trace x engine cell: "
                "%s\n", all_dominate ? "yes" : "NO");
    return all_dominate ? 0 : 1;
}

/**
 * @file
 * Heterogeneous-fleet bench: class-aware placement vs class-blind
 * least-loaded over mixed big/little fleets.
 *
 * The placement matrix behind the PR-8 heterogeneity subsystem: two
 * tenant applications — the microsim tenant with a deliberately weak
 * knob and a small SpMV kernel (precision/compression knobs) — serve a
 * Poisson arrival trace on three fleets provisioned from the built-in
 * big.LITTLE catalog (all-big, 2 big + 2 little, 1 big + 3 little),
 * once under class-blind least-loaded placement and once under the
 * affinity-aware policy, on the epoch schedule. Both apps are sized so
 * the calibrated maximum speedup is *below* the little class's
 * effective-speed deficit (reference 2.4 GHz vs 1.6 GHz x 0.6 = 2.5x):
 * jobs placed on a little machine cannot buy the deficit back with
 * knobs alone, so placement is a real decision with observable
 * latency/QoS consequences — exactly the regime the affinity policy's
 * cost function prices.
 *
 * The verdict: on every mixed (app, mix) cell the affinity
 * policy must deliver a lower p95 latency AND a lower mean QoS loss
 * than least-loaded; on the all-big fleet both policies must produce
 * identical numbers (the bit-identity guarantee made visible). The
 * process exits nonzero otherwise.
 *
 * Output is byte-identical for --threads=1 and --threads=N (the CI
 * hetero-smoke job asserts this and diffs the summary against
 * bench/golden/hetero_placement.txt). Wall-clock goes to stderr.
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/spmv/spmv_app.h"
#include "bench_common.h"
#include "fleet/server.h"
#include "microsim_app.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

struct HeteroBenchOptions
{
    std::size_t steps = 48;  //!< Arrival-trace length, epochs.
    std::size_t threads = 0; //!< Tenant-session workers (0 = all).
    ObsOptions obs; //!< --trace / --trace-jsonl / --metrics outputs.
};

HeteroBenchOptions
parseHeteroOptions(int argc, char **argv)
{
    HeteroBenchOptions options;
    std::vector<Flag> flags = {
        countFlag("--steps=", options.steps, 1),
        countFlag("--threads=", options.threads),
    };
    addObsFlags(flags, options.obs);
    parseFlags(argc, argv, flags,
               "usage: %s [--steps=N] [--threads=N | -t N]\n"
               "  steps    arrival-trace epochs (default 48)\n"
               "  threads  tenant-session workers "
               "(0 = all hardware contexts, 1 = serial)\n",
               obsUsage());
    return options;
}

/** The SpMV tenant, sized so calibration stays in milliseconds and
 *  max speedup (~2.3x) is below the little-class deficit (2.5x). */
apps::spmv::SpmvConfig
spmvTenantConfig()
{
    apps::spmv::SpmvConfig config;
    config.rows = 48;
    config.band = 8;
    config.inputs = 4;
    config.bits_values = {56, 64};
    config.keep_values = {0.5, 0.75, 1.0};
    return config;
}

struct MixCase
{
    const char *label;
    std::vector<std::size_t> class_mix; //!< {big, little} counts.
    bool mixed;
};

struct HeteroCase
{
    std::string app;
    std::string mix;
    std::string placement;
    bool mixed = false;
    fleet::FleetReport report;
};

void
printMachineTable(const fleet::FleetReport &report)
{
    std::printf("%7s %6s %6s %6s %10s %10s %10s\n", "machine", "class",
                "jobs", "shed", "p50_lat", "p95_lat", "p99_lat");
    for (const auto &row : report.machines)
        std::printf("%7zu %6zu %6zu %6zu %10.4f %10.4f %10.4f\n",
                    row.machine, row.machine_class, row.jobs, row.shed,
                    row.p50_latency_s, row.p95_latency_s,
                    row.p99_latency_s);
    std::printf("total jobs %zu, shed %zu, p95 %.4f s, "
                "mean qos loss %.4f%%, mean watts %.1f\n",
                report.total_jobs, report.total_shed,
                report.p95_latency_s, 100.0 * report.mean_qos_loss,
                report.mean_watts);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = parseHeteroOptions(argc, argv);
    banner("hetero placement: affinity-aware vs least-loaded on "
           "mixed fleets");

    // Arrivals: Poisson over a mildly spiky trace, shared by every
    // cell so the placement policies face identical offered load.
    workload::LoadTraceParams trace;
    trace.steps = options.steps;
    trace.base_utilization = 0.75;
    trace.jitter = 0.05;
    trace.spike_probability = 0.08;
    trace.seed = 0x4e7e0001;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = 10.0;
    arrival_params.seed = 0x4e7e0002;
    const std::vector<std::size_t> arrivals =
        workload::makePoissonArrivals(workload::makeLoadTrace(trace),
                                      arrival_params);

    const std::vector<MixCase> mixes = {
        {"4big", {4, 0}, false},
        {"2big2little", {2, 2}, true},
        {"1big3little", {1, 3}, true},
    };
    struct PlacementCase
    {
        const char *label;
        fleet::PlacementFactory (*factory)();
    };
    const PlacementCase placements[] = {
        {"least-loaded", fleet::makeLeastLoadedPlacement},
        {"affinity-aware", fleet::makeAffinityAwarePlacement},
    };

    struct AppCase
    {
        const char *label;
        std::unique_ptr<core::App> app;
    };
    std::vector<AppCase> apps;
    {
        // Weak knob: max speedup 2x < the 2.5x little-class deficit.
        AppCase microsim{"microsim", std::make_unique<MicrosimApp>(
                                         std::vector<double>{1.0, 1.5,
                                                             2.0})};
        AppCase spmv{"spmv", std::make_unique<apps::spmv::SpmvApp>(
                                 spmvTenantConfig())};
        apps.push_back(std::move(microsim));
        apps.push_back(std::move(spmv));
    }

    // One sink across the matrix: beginServe resets it at each serve,
    // so the outputs describe the final cell (spmv / 1big3little /
    // affinity-aware).
    auto obs_sink = makeObsSink(options.obs);

    std::vector<HeteroCase> cases;
    for (const auto &app_case : apps) {
        auto cal = calibrateTransfer(*app_case.app, *app_case.app,
                                     -1.0, options.threads);
        const auto &model = cal.training.model;
        const double baseline_s = model.baselineSeconds();
        std::fprintf(stderr,
                     "[bench] %-8s calibrated: baseline %.4f s, max "
                     "speedup %.2fx\n",
                     app_case.label, baseline_s, model.maxSpeedup());

        for (const auto &mix : mixes) {
            for (const auto &placement : placements) {
                fleet::ServerOptions server_options;
                server_options.catalog = sim::MachineCatalog::bigLittle();
                server_options.class_mix = mix.class_mix;
                server_options.threads = options.threads;
                server_options.epoch_seconds = baseline_s;
                server_options.queue_depth = 6;
                server_options.placement = placement.factory();
                server_options.trace = obs_sink ? &*obs_sink : nullptr;

                std::string label = std::string(app_case.label) + " / " +
                    mix.label + " / epoch / " + placement.label;
                banner(label);
                fleet::Server server(*app_case.app, cal.ident.table,
                                     model, server_options);
                const auto start = std::chrono::steady_clock::now();
                auto report = server.serve(arrivals);
                const double wall_s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                std::fprintf(stderr, "[bench] %-44s wall-clock %.3f s\n",
                             label.c_str(), wall_s);
                printMachineTable(report);
                cases.push_back({app_case.label, mix.label,
                                 placement.label, mix.mixed,
                                 std::move(report)});
            }
        }
    }

    writeObsOutputs(options.obs, obs_sink ? &*obs_sink : nullptr,
                    cases.back().report);

    // Every cell runs the default epoch schedule; the engine column and
    // the "/epoch" verdict suffix keep the golden's layout.
    banner("hetero summary");
    std::printf("%-8s %-12s %-6s %-14s %6s %6s %10s %10s %9s %9s\n",
                "app", "mix", "engine", "placement", "jobs", "shed",
                "p95_lat", "p99_lat", "qos_loss%", "watts");
    for (const auto &hetero_case : cases)
        std::printf(
            "%-8s %-12s epoch  %-14s %6zu %6zu %10.4f %10.4f %9.4f "
            "%9.1f\n",
            hetero_case.app.c_str(), hetero_case.mix.c_str(),
            hetero_case.placement.c_str(),
            hetero_case.report.total_jobs,
            hetero_case.report.total_shed,
            hetero_case.report.p95_latency_s,
            hetero_case.report.p99_latency_s,
            100.0 * hetero_case.report.mean_qos_loss,
            hetero_case.report.mean_watts);

    // The acceptance verdict. Cases were pushed least-loaded first,
    // affinity-aware second for each (app, mix) cell.
    bool ok = true;
    std::printf("\n");
    for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
        const auto &blind = cases[i];
        const auto &aware = cases[i + 1];
        if (blind.mixed) {
            const bool dominates =
                aware.report.p95_latency_s <
                    blind.report.p95_latency_s &&
                aware.report.mean_qos_loss <
                    blind.report.mean_qos_loss;
            ok = ok && dominates;
            std::printf(
                "affinity dominates least-loaded on %s/%s/epoch "
                "(p95 %.4f < %.4f, qos %.4f%% < %.4f%%): %s\n",
                blind.app.c_str(), blind.mix.c_str(),
                aware.report.p95_latency_s,
                blind.report.p95_latency_s,
                100.0 * aware.report.mean_qos_loss,
                100.0 * blind.report.mean_qos_loss,
                dominates ? "yes" : "NO");
        } else {
            // Homogeneous fleet: the affinity policy must be invisible.
            const bool identical =
                aware.report.p95_latency_s ==
                    blind.report.p95_latency_s &&
                aware.report.p99_latency_s ==
                    blind.report.p99_latency_s &&
                aware.report.mean_qos_loss ==
                    blind.report.mean_qos_loss &&
                aware.report.total_jobs == blind.report.total_jobs &&
                aware.report.total_shed == blind.report.total_shed;
            ok = ok && identical;
            std::printf("affinity identical to least-loaded on "
                        "homogeneous %s/%s/epoch: %s\n",
                        blind.app.c_str(), blind.mix.c_str(),
                        identical ? "yes" : "NO");
        }
    }
    std::printf("affinity-aware placement verdict on every cell: %s\n",
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}

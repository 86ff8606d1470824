/**
 * @file
 * Extension bench: a consolidated cluster riding a live load trace.
 *
 * Section 5.5 evaluates steady-state utilisation points; this bench
 * replays the paper's motivating workload shape — predominantly low
 * utilisation with intermittent spikes [Barroso & Holzle] — against
 * the consolidated swaptions cluster, and at three representative
 * load levels runs the *actual* controlled application on an
 * oversubscribed machine to measure delivered performance and QoS.
 */
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/consolidation.h"
#include "sim/cluster.h"
#include "workload/load_trace.h"

using namespace powerdial;
using namespace powerdial::bench;

int
main(int argc, char **argv)
{
    const auto bopts = parseBenchOptions(argc, argv);
    banner("Load-spike replay: consolidated swaptions cluster (4 -> 1)");
    auto sweep = makeSwaptions();
    auto app = makeSwaptions(RunLength::Series);
    auto cal = calibrateTransfer(*sweep, *app, 0.05, bopts.threads);
    const auto &model = cal.training.model;

    sim::Machine::Config mconfig; // 8 cores.
    sim::Cluster original(4, mconfig);
    sim::Cluster consolidated(1, mconfig);
    const std::size_t peak = original.peakInstances(); // 32.

    workload::LoadTraceParams lt;
    lt.steps = 96;
    lt.base_utilization = 0.25;
    lt.spike_probability = 0.05;
    const auto trace = workload::makeLoadTrace(lt);

    std::printf("%6s %8s %10s %12s %12s %10s\n", "step", "load",
                "instances", "orig_W", "consol_W", "qos_loss%");
    double orig_j = 0.0, cons_j = 0.0, qos_acc = 0.0;
    std::size_t spikes = 0;
    for (std::size_t t = 0; t < trace.size(); ++t) {
        const auto instances = workload::instancesAt(trace[t], peak);
        const double ow = original.steadyStateWatts(instances);
        const auto placement = consolidated.balance(instances);
        const double cw = consolidated.steadyStateWatts(placement);
        const double required =
            consolidated.maxRequiredSpeedup(placement);
        const double qos = instances == 0
            ? 0.0
            : model.atLeast(required).qos_loss;
        orig_j += ow;
        cons_j += cw;
        qos_acc += qos;
        if (trace[t] >= 0.99)
            ++spikes;
        if (t % 12 == 0 || trace[t] >= 0.99) {
            std::printf("%6zu %8.2f %10zu %12.1f %12.1f %10.3f%s\n", t,
                        trace[t], instances, ow, cw, 100.0 * qos,
                        trace[t] >= 0.99 ? "  <- spike" : "");
        }
    }
    const double n = static_cast<double>(trace.size());
    std::printf("\nover %zu steps (%zu spike steps): mean power "
                "original %.0f W, consolidated %.0f W (%.0f%% saved); "
                "mean QoS loss %.3f%%\n", trace.size(), spikes,
                orig_j / n, cons_j / n,
                100.0 * (orig_j - cons_j) / orig_j,
                100.0 * qos_acc / n);

    banner("Measured controlled runs at representative shares");
    std::printf("%16s %14s %14s\n", "core share", "perf/target",
                "qos_loss%");
    const auto input = app->productionInputs().front();
    const auto baseline =
        core::runFixed(*app, input, app->defaultCombination());
    // Independent sessions on cloned apps: fan them out.
    std::vector<core::ReplayCase> cases;
    for (const double share : {1.0, 0.5, 0.25})
        cases.push_back({share, 1.0});
    core::ConsolidationReplayOptions ropt;
    ropt.input = input;
    ropt.threads = bopts.threads; // 0 = all hardware contexts.
    const auto outcomes = core::replayConsolidation(
        *app, cal.ident.table, model, baseline.output, cases, ropt);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        std::printf("%16.2f %14.3f %14.3f\n", cases[i].share,
                    outcomes[i].tail_mean_perf,
                    100.0 * outcomes[i].qos_loss_measured);
    }
    std::printf("\nshape: baseline QoS at low shares' inverse (1.0), "
                "graceful loss as oversubscription rises; performance "
                "held at target throughout.\n");
    return 0;
}

/**
 * @file
 * Scenario example: consolidating a search-engine cluster.
 *
 * The paper's section 5.5 case as an operator would use it: a search
 * service provisioned with three machines for peak load is rebuilt
 * with two, and PowerDial's max-results knob absorbs the load spikes.
 * The example replays a synthetic day of load with intermittent
 * spikes and reports, per time step, the power of both systems and
 * the QoS the consolidated system delivers.
 *
 * Build & run:  ./build/examples/consolidation_search
 */
#include <algorithm>
#include <cstdio>

#include "apps/searchx/searchx_app.h"
#include "core/analytical.h"
#include "core/calibration.h"
#include "core/consolidation.h"
#include "core/identify.h"
#include "sim/cluster.h"
#include "workload/load_trace.h"

using namespace powerdial;

int
main()
{
    apps::searchx::SearchxConfig config;
    config.inputs = 4;
    apps::searchx::SearchxApp app(config);
    auto ident = core::identifyKnobs(app);
    if (!ident.analysis.accepted)
        return 1;
    core::CalibrationOptions copt;
    copt.qos_cap = 0.30; // The paper's swish++ QoS-loss bound.
    copt.threads = 0;    // Calibrate on every available core.
    const auto cal =
        core::calibrate(app, app.trainingInputs(), copt);

    // Size the consolidated cluster with Equation 21.
    const double s_qos = cal.model.bestWithinQoS(0.30).speedup;
    core::analytical::ConsolidationModel cm;
    cm.n_orig = 3;
    cm.work_per_machine = 1.0; // One engine instance per machine.
    cm.speedup = s_qos;
    cm.u_orig = 0.25;
    cm.p_load = 220.0;
    cm.p_idle = 90.0;
    const auto sized = core::analytical::consolidate(cm);
    std::printf("S(QoS<=30%%) = %.2fx: consolidate 3 machines -> %zu\n\n",
                s_qos, sized.n_new);

    sim::Machine::Config mconfig;
    mconfig.cores = 1; // One search instance occupies a machine.
    sim::Cluster original(3, mconfig);
    sim::Cluster consolidated(sized.n_new, mconfig);

    // A day of load: low base utilisation with intermittent spikes.
    workload::LoadTraceParams lt;
    lt.steps = 48; // Half-hour bins.
    lt.base_utilization = 0.25;
    lt.spike_probability = 0.06;
    const auto trace = workload::makeLoadTrace(lt);

    std::printf("%6s %8s %10s %12s %12s %10s\n", "step", "load",
                "instances", "orig_W", "consol_W", "qos_loss%");
    double orig_j = 0.0, cons_j = 0.0;
    for (std::size_t t = 0; t < trace.size(); ++t) {
        const auto instances = workload::instancesAt(trace[t], 3);
        const double orig_watts = original.steadyStateWatts(instances);
        const auto placement = consolidated.balance(instances);
        const double cons_watts =
            consolidated.steadyStateWatts(placement);
        const double required =
            consolidated.maxRequiredSpeedup(placement);
        const double qos = instances == 0
            ? 0.0
            : cal.model.atLeast(required).qos_loss;
        orig_j += orig_watts;
        cons_j += cons_watts;
        if (t % 4 == 0 || trace[t] >= 0.99) {
            std::printf("%6zu %8.2f %10zu %12.1f %12.1f %10.2f%s\n", t,
                        trace[t], instances, orig_watts, cons_watts,
                        100.0 * qos,
                        trace[t] >= 0.99 ? "  <- spike" : "");
        }
    }
    std::printf("\nmean power: original %.0f W, consolidated %.0f W "
                "(%.0f%% saved)\n",
                orig_j / static_cast<double>(trace.size()),
                cons_j / static_cast<double>(trace.size()),
                100.0 * (orig_j - cons_j) / orig_j);

    // Measured check: real closed-loop sessions at the base load and
    // at a full spike, fanned out over worker threads (each replay
    // is an independent session on a private app clone).
    const auto input = app.productionInputs().front();
    const auto baseline =
        core::runFixed(app, input, app.defaultCombination());
    std::vector<core::ReplayCase> cases;
    for (const std::size_t instances :
         {workload::instancesAt(lt.base_utilization, 3),
          static_cast<std::size_t>(3)}) {
        core::ReplayCase rc;
        rc.share = consolidated.minInstanceShare(
            consolidated.balance(instances));
        cases.push_back(rc);
    }
    core::ConsolidationReplayOptions ropt;
    ropt.input = input;
    ropt.threads = 0; // Replay on every available core.
    ropt.machine = mconfig;
    const auto outcomes = core::replayConsolidation(
        app, ident.table, cal.model, baseline.output, cases, ropt);
    std::printf("\nmeasured sessions: base load perf %.3f of target "
                "(QoS loss %.1f%%), spike perf %.3f (QoS loss %.1f%%)\n",
                outcomes[0].tail_mean_perf,
                100.0 * outcomes[0].qos_loss_measured,
                outcomes[1].tail_mean_perf,
                100.0 * outcomes[1].qos_loss_measured);
    return 0;
}

/**
 * @file
 * Reproduces Figure 8 (a-d): using dynamic knobs for system
 * consolidation.
 *
 * Protocol (paper section 5.5): a baseline system provisioned for peak
 * load (PARSEC apps: 32 concurrent instances on four 8-core machines;
 * swish++: three instances on three machines) versus a consolidated
 * system (one machine for the PARSEC apps, two for swish++, chosen by
 * Equation 21 under a QoS-loss bound of 5% / 30%). Sweep utilisation
 * from 0 to the peak and report mean power of both systems plus the
 * consolidated system's QoS loss.
 *
 * Paper shape: at 25% utilisation the consolidated PARSEC systems save
 * ~400 W (66%); at 100% they deliver equal performance at ~75% less
 * power; swish++ saves ~25%.
 */
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/analytical.h"
#include "core/consolidation.h"
#include "sim/cluster.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

struct Provisioning
{
    std::size_t n_orig;        //!< Machines in the original system.
    std::size_t slots;         //!< Instance slots per machine.
    double qos_bound;          //!< QoS-loss cap for consolidation.
};

void
figurePanel(core::App &sweep, core::App &app, const Provisioning &prov,
            const BenchOptions &bopts)
{
    banner("Figure 8: " + app.name());
    auto cal =
        calibrateTransfer(sweep, app, prov.qos_bound, bopts.threads);
    const auto &model = cal.training.model;

    // Consolidation sizing via Equation 21 with S(QoS) = the fastest
    // admissible Pareto speedup under the QoS bound.
    const double s_qos = model.bestWithinQoS(prov.qos_bound).speedup;
    core::analytical::ConsolidationModel cm;
    cm.n_orig = prov.n_orig;
    cm.work_per_machine = static_cast<double>(prov.slots);
    cm.speedup = s_qos;
    cm.u_orig = 0.25;
    cm.p_load = 220.0;
    cm.p_idle = 90.0;
    const auto sized = core::analytical::consolidate(cm);
    std::printf("S(QoS<=%.0f%%) = %.2fx -> consolidate %zu machines "
                "down to %zu\n", 100.0 * prov.qos_bound, s_qos,
                prov.n_orig, sized.n_new);

    sim::Machine::Config mconfig;
    mconfig.cores = prov.slots;
    sim::Cluster original(prov.n_orig, mconfig);
    sim::Cluster consolidated(sized.n_new, mconfig);
    const std::size_t peak = original.peakInstances();

    std::printf("%12s %12s %14s %14s %12s\n", "utilization",
                "instances", "orig_power_W", "cons_power_W",
                "qos_loss%");
    for (int step = 0; step <= 8; ++step) {
        const double u = static_cast<double>(step) / 8.0;
        const auto instances = static_cast<std::size_t>(
            std::round(u * static_cast<double>(peak)));

        const double orig_watts = original.steadyStateWatts(instances);

        // Consolidated: same instances on fewer machines; PowerDial
        // raises each overloaded machine's knob speedup to hold the
        // baseline per-instance performance.
        const auto placement = consolidated.balance(instances);
        const double cons_watts =
            consolidated.steadyStateWatts(placement);
        const double required =
            consolidated.maxRequiredSpeedup(placement);
        const auto &point = model.atLeast(required);
        const double qos = instances == 0 ? 0.0 : point.qos_loss;

        std::printf("%12.3f %12zu %14.1f %14.1f %12.3f\n", u,
                    instances, orig_watts, cons_watts, 100.0 * qos);
    }

    // Measured controlled replays: at each utilisation level, one
    // instance on the consolidated system's most-loaded machine must
    // still hold the baseline rate by trading QoS. Each replay is an
    // independent session on a private app clone, so the batch fans
    // out over --threads=N workers with bit-identical
    // output at any thread count.
    const auto input = app.productionInputs().front();
    const auto baseline =
        core::runFixed(app, input, app.defaultCombination());
    std::vector<core::ReplayCase> cases;
    std::vector<double> levels;
    for (const double u : {0.25, 0.5, 0.75, 1.0}) {
        const auto instances = static_cast<std::size_t>(
            std::round(u * static_cast<double>(peak)));
        if (instances == 0)
            continue;
        core::ReplayCase rc;
        rc.share = consolidated.minInstanceShare(
            consolidated.balance(instances));
        rc.utilization = 1.0;
        cases.push_back(rc);
        levels.push_back(u);
    }
    core::ConsolidationReplayOptions ropt;
    ropt.input = input;
    ropt.threads = bopts.threads; // 0 = all hardware contexts.
    ropt.machine = mconfig;
    const auto outcomes = core::replayConsolidation(
        app, cal.ident.table, model, baseline.output, cases, ropt);
    std::printf("-- measured replays (parallel sessions):\n");
    std::printf("%12s %12s %14s %14s\n", "utilization", "share",
                "perf/target", "qos_loss%");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        std::printf("%12.2f %12.2f %14.3f %14.2f\n", levels[i],
                    cases[i].share, outcomes[i].tail_mean_perf,
                    100.0 * outcomes[i].qos_loss_measured);
    }

    const double save25 =
        original.steadyStateWatts(peak / 4) -
        consolidated.steadyStateWatts(consolidated.balance(peak / 4));
    std::printf("-- power saved at 25%% utilization: %.0f W (%.0f%%)\n",
                save25,
                100.0 * save25 / original.steadyStateWatts(peak / 4));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto bopts = parseBenchOptions(argc, argv);
    {
        auto sweep = makeSwaptions();
        auto app = makeSwaptions(RunLength::Series);
        figurePanel(*sweep, *app, {4, 8, 0.05}, bopts);
    }
    {
        auto sweep = makeVidenc();
        auto app = makeVidenc(RunLength::Series);
        figurePanel(*sweep, *app, {4, 8, 0.05}, bopts);
    }
    {
        auto sweep = makeBodytrack();
        auto app = makeBodytrack(RunLength::Series);
        figurePanel(*sweep, *app, {4, 8, 0.05}, bopts);
    }
    {
        auto sweep = makeSearchx();
        auto app = makeSearchx(RunLength::Series);
        // swish++: three single-instance machines, 30%% QoS bound.
        figurePanel(*sweep, *app, {3, 1, 0.30}, bopts);
    }
    std::printf("\npaper: PARSEC apps consolidate 4 -> 1 machines "
                "(~400 W / 66%% saved at 25%% load, ~75%% at peak); "
                "swish++ 3 -> 2 (~125 W / 25%%).\n");
    return 0;
}

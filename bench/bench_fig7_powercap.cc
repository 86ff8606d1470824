/**
 * @file
 * Reproduces Figure 7 (a-d): dynamic behaviour under a power cap.
 *
 * Protocol (paper section 5.4): start uncapped at 2.4 GHz with the
 * target set to the observed baseline performance; impose a power cap
 * (drop to 1.6 GHz) a quarter of the way through, lift it at three
 * quarters. Plot normalized performance (sliding mean over the last
 * twenty heartbeats) and knob gain over time for three runs: baseline
 * (no cap), dynamic knobs under the cap, and no-knobs under the cap.
 *
 * Paper shape: the knobs run dips at the cap, recovers to ~1.0 with
 * gain ~1.5 (the 2.4/1.6 capacity ratio), spikes up at the lift, and
 * returns to baseline; the no-knobs run sits at ~0.67 while capped.
 */
#include <vector>

#include "bench_common.h"
#include "core/fanout.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

void
figurePanel(core::App &sweep, core::App &app,
            const BenchOptions &bopts)
{
    banner("Figure 7: " + app.name());
    auto cal = calibrateTransfer(sweep, app, -1.0, bopts.threads);
    const auto input = app.productionInputs().front();

    // Observed baseline performance on this input (the paper's target).
    const auto baseline_fixed =
        core::runFixed(app, input, app.defaultCombination());
    app.loadInput(input);
    const double target = static_cast<double>(app.unitCount()) /
                          baseline_fixed.seconds;
    const double duration = baseline_fixed.seconds;

    // The three runs (uncapped baseline, dynamic knobs under the cap,
    // no knobs under the cap) are independent sessions: fan them out
    // on private clones, merged in fixed order so the
    // series is byte-identical at any thread count.
    struct RunSpec
    {
        bool knobs;
        bool capped;
    };
    const std::vector<RunSpec> specs{
        {true, false}, {true, true}, {false, true}};
    core::FanoutEngine engine(bopts.threads, specs.size());
    auto bound = core::FanoutEngine::cloneBound(app, cal.ident.table,
                                                specs.size());
    const std::vector<std::vector<core::BeatTrace>> series = engine.map(
        specs.size(), [&](std::size_t i, std::size_t /*worker*/) {
            core::SessionOptions opt =
                core::SessionOptions().withTargetRate(target)
                    .withKnobsEnabled(specs[i].knobs);
            sim::Machine machine;
            if (specs[i].capped)
                opt.withGovernor(sim::DvfsGovernor::powerCap(
                    machine, 0.25 * duration, 0.75 * duration));
            core::Session session(*bound.apps[i], bound.tables[i],
                                  cal.training.model, opt);
            auto &trace = session.attach<core::BeatTraceRecorder>();
            session.run(input, machine);
            return trace.beats();
        });
    const auto &baseline = series[0];
    const auto &knobs = series[1];
    const auto &noknobs = series[2];

    // Print a decimated time series (normalized time in [0, 1]).
    std::printf("%8s %12s %12s %12s %10s %8s\n", "beat", "baseline",
                "dyn_knobs", "no_knobs", "knob_gain", "capped");
    const std::size_t n = knobs.size();
    const std::size_t stride = std::max<std::size_t>(1, n / 32);
    for (std::size_t i = 0; i < n; i += stride) {
        const auto &b = knobs[i];
        std::printf("%8zu %12.3f %12.3f %12.3f %10.2f %8s\n", i,
                    i < baseline.size()
                        ? baseline[i].normalized_perf
                        : 0.0,
                    b.normalized_perf,
                    i < noknobs.size()
                        ? noknobs[i].normalized_perf
                        : 0.0,
                    b.knob_gain,
                    b.pstate == 0 ? "no" : "YES");
    }

    // Summary statistics for the capped middle half.
    auto meanPerf = [](const std::vector<core::BeatTrace> &beats,
                       std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi && i < beats.size(); ++i)
            acc += beats[i].normalized_perf;
        return acc / static_cast<double>(hi - lo);
    };
    const std::size_t lo = static_cast<std::size_t>(0.35 * n);
    const std::size_t hi = static_cast<std::size_t>(0.65 * n);
    std::printf("-- capped-region mean perf: dyn_knobs %.3f, "
                "no_knobs %.3f (paper: ~1.0 vs ~0.67)\n",
                meanPerf(knobs, lo, hi), meanPerf(noknobs, lo, hi));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto bopts = parseBenchOptions(argc, argv);
    {
        auto sweep = makeSwaptions();
        auto app = makeSwaptions(RunLength::Series);
        figurePanel(*sweep, *app, bopts);
    }
    {
        auto sweep = makeVidenc();
        auto app = makeVidenc(RunLength::Series);
        figurePanel(*sweep, *app, bopts);
    }
    {
        auto sweep = makeBodytrack();
        auto app = makeBodytrack(RunLength::Series);
        figurePanel(*sweep, *app, bopts);
    }
    {
        auto sweep = makeSearchx();
        auto app = makeSearchx(RunLength::Series);
        figurePanel(*sweep, *app, bopts);
    }
    return 0;
}

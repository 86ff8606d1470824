/**
 * @file
 * Reproduces Figure 6 (a-d): power versus QoS trade-offs across the
 * seven processor power states.
 *
 * Protocol (paper section 5.3): configure the application at its
 * highest-QoS point at 2.4 GHz, observe its performance, then ask
 * PowerDial to maintain that performance while the clock is dropped to
 * each lower state; measure resulting QoS loss and mean power.
 *
 * Paper shape: power falls monotonically with frequency (x264 -21%,
 * bodytrack -17%, swaptions -18%, swish++ -16% at 1.6 GHz) while QoS
 * loss grows but stays small for the PARSEC apps.
 */
#include <vector>

#include "bench_common.h"
#include "core/fanout.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

/** One P-state's measured row of the figure. */
struct StateRow
{
    double watts = 0.0;
    double qos = 0.0;
    double perf = 0.0;
    double gain = 0.0;
};

void
figurePanel(core::App &sweep, core::App &app,
            const BenchOptions &bopts)
{
    banner("Figure 6: " + app.name());
    auto cal = calibrateTransfer(sweep, app, -1.0, bopts.threads);
    const auto input = app.productionInputs().front();

    // Baseline output (default knobs, P-state 0) for QoS comparison,
    // and the observed baseline performance that becomes the target
    // (paper: "observe the performance ... then instruct the PowerDial
    // control system to maintain the observed performance").
    const auto baseline = core::runFixed(app, input,
                                         app.defaultCombination());
    app.loadInput(input);
    const double target =
        static_cast<double>(app.unitCount()) / baseline.seconds;

    // The per-P-state runs are independent sessions since the Session
    // redesign: the fan-out engine runs each on a private clone with
    // a rebound knob table and merges rows in P-state order, so the
    // table is byte-identical at any thread count.
    const std::size_t states = sim::Machine().scale().states();
    core::FanoutEngine engine(bopts.threads, states);
    auto bound =
        core::FanoutEngine::cloneBound(app, cal.ident.table, states);
    const std::vector<StateRow> rows = engine.map(
        states, [&](std::size_t pstate, std::size_t /*worker*/) {
            core::Session session(
                *bound.apps[pstate], bound.tables[pstate],
                cal.training.model,
                core::SessionOptions().withTargetRate(target));
            auto &trace = session.attach<core::BeatTraceRecorder>();
            sim::Machine machine;
            machine.setPState(pstate);
            machine.setUtilization(1.0); // App keeps the machine busy.
            session.run(input, machine);
            const auto &beats = trace.beats();

            StateRow row;
            row.qos = qos::distortion(baseline.output,
                                      bound.apps[pstate]->output());
            row.watts = machine.meanWatts();

            // Tail-mean performance (after convergence), like the
            // paper's "within 5% of the target" verification.
            const std::size_t tail = beats.size() / 2;
            for (std::size_t i = tail; i < beats.size(); ++i) {
                row.perf += beats[i].normalized_perf;
                row.gain += beats[i].knob_gain;
            }
            row.perf /= static_cast<double>(beats.size() - tail);
            row.gain /= static_cast<double>(beats.size() - tail);
            return row;
        });

    std::printf("%10s %12s %12s %12s %12s\n", "freq_GHz", "power_W",
                "qos_loss%", "perf/target", "knob_gain");
    sim::Machine probe;
    for (std::size_t pstate = 0; pstate < states; ++pstate) {
        const StateRow &row = rows[pstate];
        std::printf("%10.2f %12.1f %12.3f %12.3f %12.2f\n",
                    probe.scale().frequencyHz(pstate) / 1e9, row.watts,
                    100.0 * row.qos, row.perf, row.gain);
    }
    std::printf("-- power reduction at 1.6 GHz: %.1f%%\n",
                100.0 * (rows.front().watts - rows.back().watts) /
                    rows.front().watts);
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
    std::printf("\npaper: x264 -21%% power at <0.5%% QoS; bodytrack "
                "-17%% at <2.3%%; swaptions -18%% at <0.05%%; swish++ "
                "-16%% at <32%%.\n");
    return 0;
}

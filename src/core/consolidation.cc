#include "core/consolidation.h"

#include "core/fanout.h"
#include "qos/distortion.h"

namespace powerdial::core {

namespace {

/** One replay on a private clone; pure function of its inputs. */
ReplayOutcome
replayOne(App &app, const KnobTable &table, const ResponseModel &model,
          const qos::OutputAbstraction &baseline, const ReplayCase &c,
          const ConsolidationReplayOptions &options)
{
    sim::Machine machine(options.machine);
    machine.setShare(std::min(1.0, c.share));
    machine.setUtilization(c.utilization);

    Session session(app, table, model, options.session);
    BeatTraceRecorder recorder;
    session.observe(recorder);
    const ControlledRun run = session.run(options.input, machine);

    ReplayOutcome out;
    const auto &beats = recorder.beats();
    const std::size_t tail = beats.size() / 2;
    double perf = 0.0;
    for (std::size_t i = tail; i < beats.size(); ++i)
        perf += beats[i].normalized_perf;
    out.tail_mean_perf = beats.size() > tail
        ? perf / static_cast<double>(beats.size() - tail)
        : 0.0;
    out.qos_loss_measured = qos::distortion(baseline, app.output());
    out.qos_loss_estimate = run.mean_qos_loss_estimate;
    out.seconds = run.seconds;
    out.energy_j = machine.energyJoules();
    out.mean_watts = machine.meanWatts();
    return out;
}

} // namespace

std::vector<ReplayOutcome>
replayConsolidation(const App &app, const KnobTable &table,
                    const ResponseModel &model,
                    const qos::OutputAbstraction &baseline,
                    const std::vector<ReplayCase> &cases,
                    const ConsolidationReplayOptions &options)
{
    if (cases.empty())
        return {};

    // Every case runs on a private clone with a rebound knob table —
    // identical work whichever worker runs it, so outcomes are
    // bit-identical at any thread count. The engine creates the
    // clones serially and merges outcomes in case order.
    FanoutEngine engine(options.threads, cases.size());
    auto bound = FanoutEngine::cloneBound(app, table, cases.size());
    return engine.map(
        cases.size(), [&](std::size_t task, std::size_t /*worker*/) {
            return replayOne(*bound.apps[task], bound.tables[task],
                             model, baseline, cases[task], options);
        });
}

} // namespace powerdial::core

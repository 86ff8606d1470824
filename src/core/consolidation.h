/**
 * @file
 * Parallel consolidated-cluster replays (paper section 5.5).
 *
 * The consolidation experiments measure what an application instance
 * actually delivers on an oversubscribed machine: each replay pins a
 * per-instance core share, runs the full closed-loop session, and
 * reports delivered performance and QoS. Replays are mutually
 * independent, so after the Session redesign they fan out through
 * core::FanoutEngine exactly like the calibration sweep: each
 * worker task gets a private App::clone() with a rebound knob table
 * and its own simulated machine, and results merge in fixed case
 * order — the output is bit-identical at any thread count.
 */
#ifndef POWERDIAL_CORE_CONSOLIDATION_H
#define POWERDIAL_CORE_CONSOLIDATION_H

#include <cstddef>
#include <vector>

#include "core/session.h"
#include "sim/machine.h"

namespace powerdial::core {

/** One replay: an instance's operating point on a shared machine. */
struct ReplayCase
{
    /** Core share the instance receives (1.0 = dedicated core). */
    double share = 1.0;
    /** Machine-wide utilisation used for power accounting. */
    double utilization = 1.0;
};

/** What one replay delivered. */
struct ReplayOutcome
{
    double tail_mean_perf = 0.0; //!< Mean normalized perf, last half.
    double qos_loss_measured = 0.0; //!< Distortion vs baseline output.
    double qos_loss_estimate = 0.0; //!< Work-weighted calibrated loss.
    double seconds = 0.0;           //!< Virtual execution time.
    double energy_j = 0.0;          //!< Machine energy over the run.
    double mean_watts = 0.0;        //!< Mean machine power.
};

/** Options of a replay batch. */
struct ConsolidationReplayOptions
{
    /** Input index every replay processes. */
    std::size_t input = 0;
    /**
     * Worker threads: 1 (default) replays serially, 0 uses all
     * hardware contexts, N > 1 uses N workers. Outcomes are
     * bit-identical regardless of the thread count.
     */
    std::size_t threads = 1;
    /** Session composition shared by every replay. */
    SessionOptions session{};
    /** Machine configuration shared by every replay. */
    sim::Machine::Config machine{};
};

/**
 * Replay @p cases of @p app under closed-loop control and report what
 * each delivered. @p baseline is the output abstraction of the
 * uncontrolled baseline run used for the measured QoS loss.
 * The original @p app is never run — each case executes on a private
 * clone — so the caller's instance keeps its state.
 */
std::vector<ReplayOutcome>
replayConsolidation(const App &app, const KnobTable &table,
                    const ResponseModel &model,
                    const qos::OutputAbstraction &baseline,
                    const std::vector<ReplayCase> &cases,
                    const ConsolidationReplayOptions &options);

} // namespace powerdial::core

#endif // POWERDIAL_CORE_CONSOLIDATION_H

/**
 * @file
 * The observation seam of the control system.
 *
 * A RunObserver receives callbacks from the Session runtime as a
 * controlled run progresses: run start, each quantum re-plan, each
 * heartbeat, and run end. The pre-Session runtime baked a BeatTrace
 * vector into every run; that collection is now one observer
 * (BeatTraceRecorder) among many, and a run with no observers pays no
 * per-beat recording cost at all. core::writeBeatsCsv (trace_export.h)
 * renders a recorder's beats as the Figure 7 CSV.
 *
 * Delivery contract: observers are notified in registration order for
 * every event. An exception thrown by an observer aborts the run and
 * propagates to the Session::run caller; observers registered before
 * the throwing one have already received the event, later ones have
 * not (the equivalence and ordering tests pin this down).
 */
#ifndef POWERDIAL_CORE_RUN_OBSERVER_H
#define POWERDIAL_CORE_RUN_OBSERVER_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/actuation_strategy.h"

namespace powerdial::core {

/** Per-beat record, the raw series behind Figure 7. */
struct BeatTrace
{
    double time_s;          //!< Virtual time of the beat.
    double window_rate;     //!< Sliding-window heart rate.
    double normalized_perf; //!< window_rate / target (1.0 = on target).
    double commanded_speedup; //!< Controller output for this quantum.
    double knob_gain;       //!< Calibrated speedup of the installed combo.
    std::size_t combination;//!< Installed knob combination.
    std::size_t pstate;     //!< Machine P-state at the beat.
};

/**
 * Result of one controlled execution: plain data. The run's output is
 * the application's own (App::output() once the run completes), so a
 * caller that measures QoS reads it there and a caller that does not
 * builds none.
 */
struct ControlledRun
{
    double seconds = 0.0;    //!< Total virtual execution time.
    double mean_qos_loss_estimate = 0.0; //!< Work-weighted calibrated
                                         //!< QoS loss of installed combos.
    std::size_t beat_count = 0; //!< Heartbeats (units) processed.

    // Where `seconds` went, additively (up to FP rounding):
    // seconds ~= service_s + queue_share_s + class_deficit_s + pause_s.
    double service_s = 0.0;  //!< Work at nominal frequency, full share.
    double queue_share_s = 0.0;  //!< Waiting on co-tenants (share < 1).
    double class_deficit_s = 0.0; //!< Running below nominal speed
                                  //!< (DVFS throttle, slow class).
    double pause_s = 0.0;    //!< Explicit idling: race-to-idle slack,
                             //!< duty-cycle gates, arbiter pauses.
};

/** Context delivered at run start. */
struct RunStartEvent
{
    std::string app_name;    //!< Application under control.
    std::size_t input;       //!< Input index being processed.
    std::size_t units;       //!< Units (heartbeats) the run will emit.
    double target_rate;      //!< Resolved target heart rate, beats/s.
    double start_time_s;     //!< Virtual time at run start.
};

/** Context delivered at each quantum re-plan. */
struct QuantumEvent
{
    std::size_t beat;          //!< Beat index of the quantum boundary.
    double window_rate;        //!< Observed sliding-window rate.
    double commanded_speedup;  //!< Fresh policy command.
    const ActuationPlan &plan; //!< Plan installed for the quantum.
    double time_s = 0.0;       //!< Virtual time of the re-plan.
};

/** Context delivered at each heartbeat. */
struct BeatEvent
{
    std::size_t beat;        //!< 0-based beat index within the run.
    const BeatTrace &trace;  //!< The beat's full trace record.
};

/** Beat/quantum callback interface for controlled runs. */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    virtual void onRunStart(const RunStartEvent &event) { (void)event; }
    virtual void onQuantum(const QuantumEvent &event) { (void)event; }
    virtual void onBeat(const BeatEvent &event) { (void)event; }
    virtual void onRunEnd(const ControlledRun &run) { (void)run; }
};

/**
 * The pre-Session beat-trace collection as an observer: records every
 * BeatTrace into a vector. Reusable across runs — the vector resets at
 * each onRunStart.
 */
class BeatTraceRecorder final : public RunObserver
{
  public:
    void onRunStart(const RunStartEvent &event) override;
    void onBeat(const BeatEvent &event) override;

    /** The recorded series of the most recent (or in-flight) run. */
    const std::vector<BeatTrace> &beats() const { return beats_; }

  private:
    std::vector<BeatTrace> beats_;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_RUN_OBSERVER_H

/**
 * @file
 * The PowerDial control-loop runtime (paper section 2.3, Figure 2) as
 * a composable session.
 *
 * A Session composes the three separable components of the control
 * system around an application's main loop, each behind its own seam:
 *
 *   - heart-rate feedback   : hb::Monitor (the Application Heartbeats
 *                             sliding window);
 *   - the control law       : core::ControlPolicy (default: the
 *                             paper's deadbeat integral law);
 *   - the actuator          : core::ActuationStrategy (default: the
 *                             minimal-speedup constraint solution);
 *   - observation           : any number of core::RunObserver
 *                             callbacks (trace recording, CSV export).
 *
 * Each loop iteration emits a heartbeat; every quantum (twenty beats
 * by default) the policy converts the heart-rate error into a speedup
 * command, the strategy converts it into a knob schedule, and the
 * session installs knob settings by writing the recorded control
 * variable values into the application's address space.
 *
 * The Session replaces the pre-redesign core::Runtime, whose single
 * run() hard-wired one control law, a two-value actuation enum, baked-
 * in trace collection, and a raw-pointer DVFS governor. The DVFS
 * governor is now an owned component of SessionOptions, reset at the
 * start of every run so sessions are replayable and parallelizable.
 */
#ifndef POWERDIAL_CORE_SESSION_H
#define POWERDIAL_CORE_SESSION_H

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/actuation_strategy.h"
#include "core/app.h"
#include "core/control_policy.h"
#include "core/response_model.h"
#include "core/run_observer.h"
#include "heartbeats/heartbeat.h"
#include "sim/dvfs_governor.h"

namespace powerdial::core {

/**
 * Context handed to the external beat gate (SessionOptions::gate) at
 * the top of every beat, before the unit's work executes.
 */
struct BeatGateContext
{
    std::size_t beat;      //!< 0-based index of the beat about to run.
    sim::Machine &machine; //!< The machine the run executes on.
    /**
     * Set by the gate: virtual seconds the session idles before
     * processing this beat's unit — an externally imposed pause. The
     * pause delays subsequent heartbeats, so the control loop sees the
     * resulting rate drop and compensates with knobs like it does for
     * any other capacity disturbance.
     */
    double pause_seconds = 0.0;
    /**
     * Set by the gate: idle seconds inserted per busy second of this
     * beat's work, applied after the unit executes (like race-to-
     * idle's planned slack). Because it scales with the measured busy
     * time — whatever the current frequency, core share, and knob
     * setting — a gate duty-cycling the machine to an average power
     * budget meets the budget exactly: mean watts over the beat are
     * (W_busy + ratio * W_idle) / (1 + ratio).
     */
    double pause_per_busy = 0.0;
};

/**
 * External arbitration hook: called once per beat with a mutable
 * context. A gate may pause the session (pause_seconds) and may
 * actuate the machine directly (e.g. install a new P-state cap) —
 * this is how an agent outside the session, such as the fleet power
 * arbiter, suspends and resumes tenants mid-run without owning the
 * control loop.
 */
using BeatGate = std::function<void(BeatGateContext &)>;

/**
 * Compose gates into one: each beat runs every non-null gate in order
 * on the same context, so their pause contributions accumulate (the
 * fleet server composes the caller's gate with the lease gate this
 * way). Null entries are skipped; if no gate remains the result is a
 * null BeatGate, which SessionOptions treats as "no gate".
 */
BeatGate composeGates(std::vector<BeatGate> gates);

/** Two-gate convenience overload (the common caller + arbiter pair). */
BeatGate composeGates(BeatGate first, BeatGate second);

/**
 * A duty-cycle pause gate: every beat adds @p ratio idle seconds per
 * busy second of the beat's work (BeatGateContext::pause_per_busy).
 * Because the pause scales with measured busy time, a machine
 * duty-cycled this way meets an average power budget exactly whatever
 * the tenant's share, frequency, and knob setting.
 */
BeatGate makeDutyCycleGate(double ratio);

/**
 * Session configuration: plain fields plus builder-style setters so
 * call sites can compose options fluently:
 *
 *   Session session(app, table, model,
 *                   SessionOptions()
 *                       .withTargetRate(rate)
 *                       .withStrategy(makeRaceToIdleStrategy())
 *                       .withGovernor(sim::DvfsGovernor::powerCap(...)));
 */
struct SessionOptions
{
    std::size_t quantum_beats = 20; //!< Paper's heuristic quantum.
    std::size_t window = 20;        //!< Heartbeat sliding window.
    /**
     * Target heart rate; 0 means "use the calibrated baseline rate",
     * the paper's standard setup (min == max == baseline rate).
     */
    double target_rate = 0.0;
    /** If false, knobs are pinned at the default setting (the paper's
     *  "without dynamic knobs" comparison runs). */
    bool knobs_enabled = true;
    /** Control-law factory; null means the deadbeat integral law. */
    PolicyFactory policy;
    /** Actuation factory; null means minimal-speedup. */
    StrategyFactory strategy;
    /**
     * Owned DVFS governor imposing frequency changes (the power-cap
     * scenario). At every run start the session rewinds it and
     * re-anchors its schedule at the machine's current virtual time,
     * so event times are relative to the run, not absolute — the
     * session replays the same scenario on every run, including on a
     * machine reused across runs.
     */
    std::optional<sim::DvfsGovernor> governor;
    /** Per-beat external arbitration hook; null means no gate. */
    BeatGate gate;

    SessionOptions &withQuantum(std::size_t beats);
    SessionOptions &withWindow(std::size_t beats);
    SessionOptions &withTargetRate(double rate);
    SessionOptions &withKnobsEnabled(bool enabled);
    SessionOptions &withPolicy(PolicyFactory factory);
    SessionOptions &withStrategy(StrategyFactory factory);
    SessionOptions &withGovernor(sim::DvfsGovernor governor);
    SessionOptions &withGate(BeatGate gate);
};

/**
 * One controlled-execution session for one application.
 *
 * The application, knob table, and response model must outlive the
 * session. A session is single-threaded, but independent sessions on
 * cloned applications run concurrently (see core/consolidation.h).
 */
class Session
{
  public:
    /**
     * @param app     The heartbeat-instrumented application.
     * @param table   Recorded control-variable values + write bindings.
     * @param model   Calibrated response model.
     * @param options Control-system composition options.
     */
    Session(App &app, const KnobTable &table, const ResponseModel &model,
            SessionOptions options = {});

    /** Register a borrowed observer (must outlive the session). */
    void observe(RunObserver &observer);

    /** Register an owned observer; returns a reference to it. */
    RunObserver &observe(std::unique_ptr<RunObserver> observer);

    /** Construct and register an owned observer of type T in place. */
    template <typename T, typename... Args>
    T &
    attach(Args &&...args)
    {
        auto owned = std::make_unique<T>(std::forward<Args>(args)...);
        T &ref = *owned;
        observe(std::move(owned));
        return ref;
    }

    /**
     * Execute input @p input to completion on @p machine under closed-
     * loop control. Equivalent to start() followed by one
     * advanceUntil() with no deadline.
     */
    ControlledRun run(std::size_t input, sim::Machine &machine);

    /**
     * Begin a controlled run without executing any units: installs the
     * baseline knob setting, loads the input, rewinds the governor,
     * and emits onRunStart. The machine must outlive the run. This is
     * the persistent-tenant entry point: a fleet epoch loop starts a
     * tenant once, then advances it one epoch slice at a time.
     */
    void start(std::size_t input, sim::Machine &machine);

    /** True between start() and the run's completion. */
    bool active() const { return state_.has_value(); }

    /**
     * Advance the active run until it completes or the machine's
     * virtual time reaches @p deadline_s (checked at the top of each
     * beat; a beat whose work straddles the deadline finishes its
     * unit). Virtual time is continuous across calls — slicing a run
     * changes nothing about the run itself, only when in host time
     * its beats execute — so an external agent may mutate what the
     * session's beat gate reads between slices and the next beat
     * already observes it.
     *
     * @return The completed run (after emitting onRunEnd), or
     *         std::nullopt when the deadline arrived first.
     */
    std::optional<ControlledRun> advanceUntil(double deadline_s);

    /** Units processed so far in the active run (0 when inactive). */
    std::size_t unitsProcessed() const
    {
        return state_.has_value() ? state_->unit : 0;
    }

    const SessionOptions &options() const { return options_; }
    const ResponseModel &model() const { return *model_; }
    /** The control law instance this session composes. */
    const ControlPolicy &policy() const { return *policy_; }
    /** The actuation strategy instance this session composes. */
    const ActuationStrategy &strategy() const { return *strategy_; }

  private:
    /** Everything one in-flight run carries across epoch slices. */
    struct RunState
    {
        std::size_t input = 0;
        sim::Machine *machine = nullptr;
        double target = 0.0;
        double start_time_s = 0.0;
        std::size_t units = 0;
        std::size_t unit = 0; //!< Next unit (beat) to process.
        std::optional<hb::Monitor> monitor;
        ActuationPlan plan;
        std::size_t baseline = 0;
        std::size_t applied = 0;
        double commanded = 1.0;
        double qos_weighted = 0.0;
        double qos_work = 0.0;
        // Calibrated point of the installed combination, refreshed
        // only when the combination changes.
        double combo_qos = 0.0;
        double combo_speedup = 1.0;
        ControlledRun result;
    };

    void lookupCombo(std::size_t combo);

    App *app_;
    const KnobTable *table_;
    const ResponseModel *model_;
    SessionOptions options_;
    std::unique_ptr<ControlPolicy> policy_;
    std::unique_ptr<ActuationStrategy> strategy_;
    std::vector<RunObserver *> observers_;
    std::vector<std::unique_ptr<RunObserver>> owned_observers_;
    std::optional<RunState> state_;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_SESSION_H

#include "core/session.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace powerdial::core {

BeatGate
composeGates(BeatGate first, BeatGate second)
{
    if (!first)
        return second;
    if (!second)
        return first;
    return [first = std::move(first),
            second = std::move(second)](BeatGateContext &ctx) {
        first(ctx);
        second(ctx);
    };
}

SessionOptions &
SessionOptions::withQuantum(std::size_t beats)
{
    quantum_beats = beats;
    return *this;
}

SessionOptions &
SessionOptions::withWindow(std::size_t beats)
{
    window = beats;
    return *this;
}

SessionOptions &
SessionOptions::withTargetRate(double rate)
{
    target_rate = rate;
    return *this;
}

SessionOptions &
SessionOptions::withKnobsEnabled(bool enabled)
{
    knobs_enabled = enabled;
    return *this;
}

SessionOptions &
SessionOptions::withPolicy(PolicyFactory factory)
{
    policy = std::move(factory);
    return *this;
}

SessionOptions &
SessionOptions::withStrategy(StrategyFactory factory)
{
    strategy = std::move(factory);
    return *this;
}

SessionOptions &
SessionOptions::withGovernor(sim::DvfsGovernor gov)
{
    governor = std::move(gov);
    return *this;
}

SessionOptions &
SessionOptions::withGate(BeatGate g)
{
    gate = std::move(g);
    return *this;
}

Session::Session(App &app, const KnobTable &table,
                 const ResponseModel &model, SessionOptions options)
    : app_(&app), table_(&table), model_(&model),
      options_(std::move(options))
{
    if (options_.quantum_beats == 0)
        throw std::invalid_argument("Session: quantum must be >= 1");
    if (options_.window == 0)
        throw std::invalid_argument("Session: window must be >= 1");
    policy_ = options_.policy ? options_.policy()
                              : std::make_unique<DeadbeatPolicy>();
    if (policy_ == nullptr)
        throw std::invalid_argument("Session: policy factory returned null");
    strategy_ = options_.strategy
        ? options_.strategy()
        : std::make_unique<MinimalSpeedupStrategy>();
    if (strategy_ == nullptr)
        throw std::invalid_argument(
            "Session: strategy factory returned null");
    monitor_.emplace(options_.window);
}

void
Session::observe(RunObserver &observer)
{
    observers_.push_back(&observer);
}

RunObserver &
Session::observe(std::unique_ptr<RunObserver> observer)
{
    if (observer == nullptr)
        throw std::invalid_argument("Session: null observer");
    RunObserver &ref = *observer;
    owned_observers_.push_back(std::move(observer));
    observers_.push_back(&ref);
    return ref;
}

ControlledRun
Session::run(std::size_t input, sim::Machine &machine)
{
    start(input, machine);
    auto result =
        advanceUntil(std::numeric_limits<double>::infinity());
    // An unbounded advance always completes the run.
    return *result;
}

void
Session::start(std::size_t input, sim::Machine &machine)
{
    if (state_.has_value())
        throw std::logic_error("Session: start() with a run in flight");

    RunState state;
    state.input = input;
    state.machine = &machine;
    state.target = options_.target_rate > 0.0 ? options_.target_rate
                                              : model_->baselineRate();

    monitor_->reset();

    ControlSetup setup;
    setup.baseline_rate = model_->baselineRate();
    setup.target_rate = state.target;
    setup.min_speedup = model_->baselinePoint().speedup;
    setup.max_speedup = model_->maxSpeedup();
    policy_->begin(setup);
    strategy_->begin(*model_, options_.quantum_beats);

    // Rewind the owned governor with its schedule re-anchored at this
    // run's start time, so a powerCap built against t = 0 replays
    // correctly even when the machine carries time over from a
    // previous run.
    if (options_.governor.has_value())
        options_.governor->reset(machine.now());

    // Start at the baseline (highest QoS) setting, like the paper.
    state.baseline = model_->baselineCombination();
    if (baseline_params_.empty())
        baseline_params_ = app_->knobSpace().valuesOf(state.baseline);
    app_->configure(baseline_params_);
    app_->loadInput(input);

    plan_.slices.assign(1, {state.baseline, 1.0,
                            model_->baselinePoint().speedup,
                            model_->baselinePoint().qos_loss});
    plan_.idle_fraction = 0.0;
    schedule_.compile(plan_, options_.quantum_beats);

    state.start_time_s = machine.now();
    state.units = app_->unitCount();
    state.applied = state.baseline;
    state.commanded = setup.min_speedup;
    state_ = std::move(state);
    lookupCombo(state_->applied);

    if (!observers_.empty()) {
        RunStartEvent event;
        event.app_name = app_->name();
        event.input = input;
        event.units = state_->units;
        event.target_rate = state_->target;
        event.start_time_s = state_->start_time_s;
        for (RunObserver *observer : observers_)
            observer->onRunStart(event);
    }
}

void
Session::lookupCombo(std::size_t combo)
{
    const OperatingPoint *point = model_->pointOf(combo);
    state_->combo_qos = point != nullptr ? point->qos_loss : 0.0;
    state_->combo_speedup = point != nullptr ? point->speedup : 1.0;
}

std::optional<ControlledRun>
Session::advanceUntil(double deadline_s)
{
    if (!state_.has_value())
        throw std::logic_error(
            "Session: advanceUntil() without a run in flight");
    RunState &state = *state_;
    sim::Machine &machine = *state.machine;
    sim::DvfsGovernor *governor = options_.governor.has_value()
        ? &*options_.governor
        : nullptr;

    hb::Monitor &monitor = *monitor_;

    while (state.unit < state.units && machine.now() < deadline_s) {
        const std::size_t u = state.unit;
        // Main control loop: heartbeat at the top of the loop.
        monitor.beat(machine.now());
        if (governor != nullptr)
            governor->poll(machine);

        // External arbitration gate: an outside agent (e.g. the fleet
        // power arbiter) may pause this tenant or re-actuate the
        // machine before the unit's work runs.
        double gate_pause_per_busy = 0.0;
        if (options_.gate) {
            BeatGateContext gate_ctx{u, machine};
            options_.gate(gate_ctx);
            if (gate_ctx.pause_seconds > 0.0) {
                machine.idleFor(gate_ctx.pause_seconds);
                state.result.pause_s += gate_ctx.pause_seconds;
            }
            gate_pause_per_busy = gate_ctx.pause_per_busy;
        }

        std::size_t combo = state.baseline;
        double idle_ratio = 0.0;
        if (options_.knobs_enabled) {
            // Quantum boundary: run the policy and re-plan. A plan
            // stays installed (and restarts) when the window holds no
            // rate yet.
            if (schedule_.quantumDone()) {
                const double rate = monitor.windowRate();
                if (rate > 0.0) {
                    state.commanded = policy_->update(rate);
                    strategy_->plan(state.commanded, plan_);
                    if (!observers_.empty()) {
                        const QuantumEvent event{u, rate,
                                                 state.commanded, plan_,
                                                 machine.now()};
                        for (RunObserver *observer : observers_)
                            observer->onQuantum(event);
                    }
                    schedule_.compile(plan_, options_.quantum_beats);
                } else {
                    schedule_.restart();
                }
            }
            combo = schedule_.next();
            idle_ratio = schedule_.idlePerBusySecond();
        }
        if (combo != state.applied) {
            table_->apply(combo);
            state.applied = combo;
            lookupCombo(state.applied);
        }

        const double before = machine.now();
        app_->processUnit(u, machine);
        const double busy = machine.now() - before;

        // Latency-breakdown bookkeeping: split the unit's wall time
        // into co-tenancy queueing (the share the machine gave away),
        // sub-nominal-speed deficit (running below the machine's
        // nominal P-state-0 effective rate), and pure service.
        {
            const double share = machine.share();
            state.result.queue_share_s += busy * (1.0 - share);
            const double effective = busy * share;
            const double speed_ratio = machine.speedRatio();
            state.result.service_s += effective * speed_ratio;
            state.result.class_deficit_s +=
                effective * (1.0 - speed_ratio);
        }

        // Race-to-idle: insert the plan's idle slack after the work,
        // then any externally imposed duty-cycle slack from the gate.
        if (idle_ratio > 0.0) {
            machine.idleFor(idle_ratio * busy);
            state.result.pause_s += idle_ratio * busy;
        }
        if (gate_pause_per_busy > 0.0) {
            machine.idleFor(gate_pause_per_busy * busy);
            state.result.pause_s += gate_pause_per_busy * busy;
        }

        // Account the calibrated QoS loss of the installed setting,
        // weighted by the work (one unit) it produced.
        state.qos_weighted += state.combo_qos;
        state.qos_work += 1.0;
        ++state.result.beat_count;
        ++state.unit;

        if (!observers_.empty()) {
            BeatTrace bt;
            bt.time_s = machine.now();
            bt.window_rate = monitor.windowRate();
            bt.normalized_perf = state.target > 0.0
                ? bt.window_rate / state.target
                : 0.0;
            bt.commanded_speedup = state.commanded;
            bt.knob_gain = state.combo_speedup;
            bt.combination = state.applied;
            bt.pstate = machine.pstate();
            const BeatEvent event{u, bt};
            for (RunObserver *observer : observers_)
                observer->onBeat(event);
        }
    }

    if (state.unit < state.units)
        return std::nullopt; // Paused at the deadline.

    ControlledRun result = state.result;
    result.seconds = machine.now() - state.start_time_s;
    result.mean_qos_loss_estimate = state.qos_work > 0.0
        ? state.qos_weighted / state.qos_work
        : 0.0;
    state_.reset();

    for (RunObserver *observer : observers_)
        observer->onRunEnd(result);
    return result;
}

} // namespace powerdial::core

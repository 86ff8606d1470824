/**
 * @file
 * Test-only reference implementation of the pre-Session monolithic
 * runtime (core::Runtime::run as of PR 2), kept verbatim so the
 * equivalence suite can prove that the redesigned Session with the
 * deadbeat ControlPolicy and the ported ActuationStrategies produces
 * bit-identical beat traces. Not part of the library.
 */
#ifndef POWERDIAL_TESTS_LEGACY_RUNTIME_H
#define POWERDIAL_TESTS_LEGACY_RUNTIME_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/app.h"
#include "core/response_model.h"
#include "core/run_observer.h"
#include "heartbeats/heartbeat.h"
#include "sim/dvfs_governor.h"

namespace powerdial::tests::legacy {

/** The old closed two-value actuation enum. */
enum class ActuationPolicy
{
    MinimalSpeedup,
    RaceToIdle,
};

/** The old RuntimeOptions struct. */
struct RuntimeOptions
{
    ActuationPolicy policy = ActuationPolicy::MinimalSpeedup;
    std::size_t quantum_beats = 20;
    double gain = 1.0;
    std::size_t window = 20;
    double target_rate = 0.0;
    bool knobs_enabled = true;
};

/** The old per-run result (beats baked in). */
struct ControlledRun
{
    std::vector<core::BeatTrace> beats;
    qos::OutputAbstraction output;
    double seconds = 0.0;
    double mean_qos_loss_estimate = 0.0;
};

struct ActuationSlice
{
    std::size_t combination;
    double fraction;
    double speedup;
    double qos_loss;
};

struct ActuationPlan
{
    std::vector<ActuationSlice> slices;
    double idle_fraction = 0.0;
};

/** The old Actuator, inlined. */
class Actuator
{
  public:
    Actuator(const core::ResponseModel &model, ActuationPolicy policy,
             std::size_t quantum_beats)
        : model_(&model), policy_(policy), quantum_beats_(quantum_beats)
    {
    }

    ActuationPlan
    plan(double speedup) const
    {
        ActuationPlan out;
        const auto &base = model_->baselinePoint();
        const double s_cmd = std::max(speedup, base.speedup);

        if (policy_ == ActuationPolicy::RaceToIdle) {
            const auto &fast = model_->fastest();
            const double frac = std::min(1.0, s_cmd / fast.speedup);
            out.slices.push_back(
                {fast.combination, frac, fast.speedup, fast.qos_loss});
            out.idle_fraction = 1.0 - frac;
            return out;
        }

        const auto &hi = model_->atLeast(s_cmd);
        if (hi.speedup <= s_cmd || hi.combination == base.combination) {
            out.slices.push_back(
                {hi.combination, 1.0, hi.speedup, hi.qos_loss});
            return out;
        }
        if (s_cmd <= base.speedup) {
            out.slices.push_back(
                {base.combination, 1.0, base.speedup, base.qos_loss});
            return out;
        }
        const double t_min =
            (s_cmd - base.speedup) / (hi.speedup - base.speedup);
        const double t_default = 1.0 - t_min;
        if (t_min > 0.0)
            out.slices.push_back(
                {hi.combination, t_min, hi.speedup, hi.qos_loss});
        if (t_default > 0.0)
            out.slices.push_back({base.combination, t_default,
                                  base.speedup, base.qos_loss});
        return out;
    }

    std::size_t
    combinationForBeat(const ActuationPlan &plan, std::size_t beat) const
    {
        const double pos =
            (static_cast<double>(beat % quantum_beats_) + 0.5) /
            static_cast<double>(quantum_beats_);
        const double busy = 1.0 - plan.idle_fraction;
        double acc = 0.0;
        for (const auto &s : plan.slices) {
            acc += s.fraction / (busy > 0.0 ? busy : 1.0);
            if (pos * 1.0 <= acc * 1.0 + 1e-12)
                return s.combination;
        }
        return plan.slices.back().combination;
    }

    double
    idlePerBusySecond(const ActuationPlan &plan) const
    {
        const double busy = 1.0 - plan.idle_fraction;
        if (busy <= 0.0)
            return 0.0;
        return plan.idle_fraction / busy;
    }

  private:
    const core::ResponseModel *model_;
    ActuationPolicy policy_;
    std::size_t quantum_beats_;
};

/** The old Runtime::run loop, verbatim. */
inline ControlledRun
run(core::App &app, const core::KnobTable &table,
    const core::ResponseModel &model, const RuntimeOptions &options,
    std::size_t input, sim::Machine &machine,
    sim::DvfsGovernor *governor = nullptr)
{
    const double target = options.target_rate > 0.0
        ? options.target_rate
        : model.baselineRate();

    hb::Monitor monitor(options.window);

    // The old HeartRateController (Equations 3-4): its state, and its
    // update verbatim.
    const double baseline_rate = model.baselineRate();
    const double min_speedup = model.baselinePoint().speedup;
    const double max_speedup = model.maxSpeedup();
    double speedup = min_speedup;
    const auto controllerUpdate = [&](double observed_rate) {
        const double error = target - observed_rate;
        speedup += options.gain * error / baseline_rate;
        speedup = std::clamp(speedup, min_speedup, max_speedup);
        return speedup;
    };

    Actuator actuator(model, options.policy, options.quantum_beats);

    const std::size_t baseline = model.baselineCombination();
    app.configure(app.knobSpace().valuesOf(baseline));
    app.loadInput(input);

    ActuationPlan plan;
    plan.slices.push_back({baseline, 1.0, model.baselinePoint().speedup,
                           model.baselinePoint().qos_loss});

    ControlledRun result;
    const double start = machine.now();
    const std::size_t units = app.unitCount();
    result.beats.reserve(units);

    std::size_t applied = baseline;
    double commanded = min_speedup;
    double qos_weighted = 0.0;
    double qos_work = 0.0;

    for (std::size_t u = 0; u < units; ++u) {
        monitor.beat(machine.now());
        if (governor != nullptr)
            governor->poll(machine);

        if (options.knobs_enabled && u > 0 &&
            u % options.quantum_beats == 0) {
            const double rate = monitor.windowRate();
            if (rate > 0.0) {
                commanded = controllerUpdate(rate);
                plan = actuator.plan(commanded);
            }
        }

        const std::size_t combo = options.knobs_enabled
            ? actuator.combinationForBeat(plan,
                                          u % options.quantum_beats)
            : baseline;
        if (combo != applied) {
            table.apply(combo);
            applied = combo;
        }

        const double before = machine.now();
        app.processUnit(u, machine);
        const double busy = machine.now() - before;

        const double idle_ratio = options.knobs_enabled
            ? actuator.idlePerBusySecond(plan)
            : 0.0;
        if (idle_ratio > 0.0)
            machine.idleFor(idle_ratio * busy);

        double combo_qos = 0.0;
        double combo_speedup = 1.0;
        for (const auto &p : model.allPoints()) {
            if (p.combination == applied) {
                combo_qos = p.qos_loss;
                combo_speedup = p.speedup;
                break;
            }
        }
        qos_weighted += combo_qos;
        qos_work += 1.0;

        core::BeatTrace bt;
        bt.time_s = machine.now();
        bt.window_rate = monitor.windowRate();
        bt.normalized_perf =
            target > 0.0 ? bt.window_rate / target : 0.0;
        bt.commanded_speedup = commanded;
        bt.knob_gain = combo_speedup;
        bt.combination = applied;
        bt.pstate = machine.pstate();
        result.beats.push_back(bt);
    }

    result.seconds = machine.now() - start;
    result.output = app.output();
    result.mean_qos_loss_estimate =
        qos_work > 0.0 ? qos_weighted / qos_work : 0.0;
    return result;
}

} // namespace powerdial::tests::legacy

#endif // POWERDIAL_TESTS_LEGACY_RUNTIME_H

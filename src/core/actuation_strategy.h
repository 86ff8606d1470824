/**
 * @file
 * The actuation seam of the control system (paper section 2.3.3).
 *
 * An ActuationStrategy converts the controller's continuous speedup
 * command into a schedule of discrete knob settings over a time
 * quantum ("heuristically established as the time required to process
 * twenty heartbeats") by picking one solution of the constraint system
 * of Equations 9-11:
 *
 *     s_max*t_max + s_min*t_min + (h/g)*t_default = 1
 *     t_max + t_min + t_default <= 1,   t_* >= 0
 *
 * Three strategies ship:
 *  - MinimalSpeedupStrategy: t_max = 0, run the slowest Pareto setting
 *    with speedup >= the command, mixed with the default setting.
 *    Lowest feasible QoS loss (the paper's server default).
 *  - RaceToIdleStrategy: t_min = t_default = 0, sprint at the fastest
 *    setting then idle. Best for platforms with low idle power.
 *  - QosBudgetStrategy: minimal-speedup planning under a cap on the
 *    *cumulative* work-weighted calibrated QoS loss of the run.
 *
 * The seam replaces the closed two-value ActuationPolicy enum of the
 * pre-Session runtime; new constraint-system solutions plug in without
 * touching the runtime loop.
 */
#ifndef POWERDIAL_CORE_ACTUATION_STRATEGY_H
#define POWERDIAL_CORE_ACTUATION_STRATEGY_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/response_model.h"

namespace powerdial::core {

/** One slice of an actuation plan. */
struct ActuationSlice
{
    std::size_t combination; //!< Knob combination to install.
    double fraction;         //!< Fraction of the quantum, in (0, 1].
    double speedup;          //!< Calibrated speedup of the combination.
    double qos_loss;         //!< Calibrated QoS loss of the combination.
};

/** The schedule for one time quantum. */
struct ActuationPlan
{
    std::vector<ActuationSlice> slices;
    /** Fraction of the quantum spent idle (race-to-idle only). */
    double idle_fraction = 0.0;

    /** Quantum-average speedup delivered by the plan (idle counts 0). */
    double averageSpeedup() const;

    /** Average QoS loss of the plan, weighting slices by work share. */
    double averageQosLoss() const;

    /**
     * Idle time to insert per busy second (race-to-idle spreads its
     * idle slack evenly over the quantum's beats).
     */
    double idlePerBusySecond() const;
};

/**
 * An ActuationPlan compiled for beat-by-beat execution. Compiling lays
 * the plan's slices out over the busy portion of a quantum once: slice
 * k's cumulative bound becomes the first beat of the quantum past it.
 * It also keeps the plan's idle ratio. Walking a quantum then costs a
 * beat counter and a cursor. core::Session compiles each plan it
 * installs; this is the one reader of a plan's beat layout.
 */
class KnobSchedule
{
  public:
    /**
     * Compile @p plan for quanta of @p quantum_beats beats, reusing
     * this schedule's storage, and stand at the first beat of a
     * quantum. Throws std::logic_error for an empty plan and
     * std::invalid_argument for a zero quantum.
     */
    void compile(const ActuationPlan &plan, std::size_t quantum_beats);

    /** True once every beat of the current quantum has been taken. */
    bool quantumDone() const { return beat_ == quantum_beats_; }

    /** Start another quantum under the same plan. */
    void
    restart()
    {
        beat_ = 0;
        cursor_ = 0;
    }

    /**
     * Take the quantum's next beat: its combination under the compiled
     * plan. Requires a compiled plan and a quantum not yet done.
     */
    std::size_t
    next()
    {
        // A beat runs the first slice whose end lies past it (the last
        // slice when none does); beats only move forward, so the
        // cursor never moves back within a quantum.
        while (cursor_ + 1 < slices_.size() &&
               beat_ >= slices_[cursor_].end_beat)
            ++cursor_;
        ++beat_;
        return slices_[cursor_].combination;
    }

    /** The compiled plan's ActuationPlan::idlePerBusySecond(). */
    double idlePerBusySecond() const { return idle_ratio_; }

  private:
    struct Slice
    {
        std::size_t end_beat; //!< First beat of the quantum past it.
        std::size_t combination;
    };

    std::vector<Slice> slices_;
    std::size_t quantum_beats_ = 0;
    std::size_t beat_ = 0;   //!< Beats of the quantum taken so far.
    std::size_t cursor_ = 0; //!< Slice of the latest beat.
    double idle_ratio_ = 0.0;
};

/**
 * A constraint-system solution: speedup command in, quantum plan out.
 *
 * Contract: begin() is called once before the first plan() of every
 * controlled run and must reset all run state (budgets, counters);
 * plan() may be stateful across quanta within one run (QosBudget is).
 */
class ActuationStrategy
{
  public:
    virtual ~ActuationStrategy() = default;

    /** Human-readable strategy name (for traces and reports). */
    virtual std::string name() const = 0;

    /**
     * Start a run against @p model (borrowed; outlives the run) with
     * @p quantum_beats heartbeats per quantum.
     */
    virtual void begin(const ResponseModel &model,
                       std::size_t quantum_beats) = 0;

    /**
     * Build the plan realising @p speedup over the next quantum into
     * @p out, replacing its contents (the caller's slice storage is
     * reused, so re-planning every quantum does not allocate).
     */
    virtual void plan(double speedup, ActuationPlan &out) = 0;
};

/** Factory the Session uses to mint one strategy instance per session. */
using StrategyFactory = std::function<std::unique_ptr<ActuationStrategy>()>;

/** t_max = 0: minimal feasible QoS loss (paper default). */
class MinimalSpeedupStrategy final : public ActuationStrategy
{
  public:
    std::string name() const override;
    void begin(const ResponseModel &model,
               std::size_t quantum_beats) override;
    void plan(double speedup, ActuationPlan &out) override;

  private:
    const ResponseModel *model_ = nullptr;
};

/** t_min = t_default = 0: sprint at s_max, then idle. */
class RaceToIdleStrategy final : public ActuationStrategy
{
  public:
    std::string name() const override;
    void begin(const ResponseModel &model,
               std::size_t quantum_beats) override;
    void plan(double speedup, ActuationPlan &out) override;

  private:
    const ResponseModel *model_ = nullptr;
};

/**
 * Minimal-speedup planning under a cumulative QoS-loss budget.
 *
 * The strategy tracks the work-weighted calibrated QoS loss its plans
 * have spent so far and guarantees the running mean never exceeds
 * @p mean_qos_budget: each quantum may spend at most the unspent
 * allowance accumulated at budget rate (unused allowance banks). When
 * the commanded speedup would overspend, the command is clamped to the
 * fastest mix affordable within the allowance.
 */
class QosBudgetStrategy final : public ActuationStrategy
{
  public:
    explicit QosBudgetStrategy(double mean_qos_budget);

    std::string name() const override;
    void begin(const ResponseModel &model,
               std::size_t quantum_beats) override;
    void plan(double speedup, ActuationPlan &out) override;

    /** Mean work-weighted QoS loss spent so far this run. */
    double meanSpent() const;
    double budget() const { return budget_; }

  private:
    double budget_;
    const ResponseModel *model_ = nullptr;
    double spent_ = 0.0;       //!< Sum of per-quantum plan losses.
    std::size_t quanta_ = 0;   //!< Quanta planned so far.
};

/** Factory helpers for SessionOptions. */
StrategyFactory makeMinimalSpeedupStrategy();
StrategyFactory makeRaceToIdleStrategy();
StrategyFactory makeQosBudgetStrategy(double mean_qos_budget);

} // namespace powerdial::core

#endif // POWERDIAL_CORE_ACTUATION_STRATEGY_H

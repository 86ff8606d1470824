/**
 * @file
 * The speedup-law seam of the control system (paper section 2.3.2).
 *
 * A ControlPolicy converts observed heart rates into speedup commands.
 * The paper's deadbeat integral law (DeadbeatPolicy, Equations 3-4) is
 * the default implementation; a PID generalisation and a
 * gain-scheduled adaptive variant ship alongside it. The Session
 * runtime owns one policy instance per run and never depends on a
 * concrete law, so new scenarios can plug in their own control laws
 * without touching the runtime loop.
 */
#ifndef POWERDIAL_CORE_CONTROL_POLICY_H
#define POWERDIAL_CORE_CONTROL_POLICY_H

#include <functional>
#include <memory>
#include <string>

namespace powerdial::core {

/**
 * Per-run operating parameters handed to a policy at run start. The
 * values come from the calibrated response model and the session
 * options; the policy keeps its own tuning (gains) across runs.
 */
struct ControlSetup
{
    double baseline_rate;  //!< b: heart rate at default knobs, beats/s.
    double target_rate;    //!< g: desired heart rate, beats/s.
    double min_speedup;    //!< Actuation floor (baseline setting).
    double max_speedup;    //!< Fastest calibrated knob speedup.
};

/**
 * A speedup law: heart-rate error in, clamped speedup command out.
 *
 * Contract: begin() is called once before the first update() of every
 * controlled run and must reset all run state (integrators, estimates);
 * update() returns the speedup to apply over the next quantum, clamped
 * to [min_speedup, max_speedup] of the setup.
 */
class ControlPolicy
{
  public:
    virtual ~ControlPolicy() = default;

    /** Human-readable law name (for traces and reports). */
    virtual std::string name() const = 0;

    /**
     * Start a run: adopt @p setup and reset all run state. The three
     * laws here throw std::invalid_argument for a baseline or target
     * rate that is not finite and > 0, or speedup bounds that are NaN
     * or out of order.
     */
    virtual void begin(const ControlSetup &setup) = 0;

    /**
     * One control step: observe heart rate @p observed_rate, return
     * the speedup command for the next quantum.
     */
    virtual double update(double observed_rate) = 0;
};

/** Factory the Session uses to mint one policy instance per session. */
using PolicyFactory = std::function<std::unique_ptr<ControlPolicy>()>;

/**
 * The paper's integral law (Equations 3-4):
 *
 *     e(t) = g - h(t)
 *     s(t) = s(t-1) + k e(t) / b
 *
 * where g is the target heart rate, h(t) the observed heart rate, b the
 * baseline rate (heart rate at default knobs on an unloaded machine),
 * and s(t) the speedup to apply next, clamped to the actuation range.
 * Each run starts at the floor s = min_speedup.
 *
 * With the application model h(t+1) = b s(t) (Equation 2) the closed
 * loop has one pole at z = 1 - k. The paper's k = 1 puts it at the
 * origin, F(z) = 1/z (Equation 8): unit steady-state gain and deadbeat
 * convergence. 0 < k < 1 converges more slowly and k > 2 is unstable.
 */
class DeadbeatPolicy final : public ControlPolicy
{
  public:
    /** Throws std::invalid_argument unless @p gain is finite and > 0. */
    explicit DeadbeatPolicy(double gain = 1.0);

    std::string name() const override;
    void begin(const ControlSetup &setup) override;
    double update(double observed_rate) override;

    double gain() const { return gain_; }

  private:
    double gain_;
    ControlSetup setup_{};
    double speedup_ = 0.0;
};

/**
 * Tuning of the PID speedup law. The defaults are chosen for
 * robustness: a Jury-criterion analysis of the closed loop
 * h(t+1) = r b s(t) shows them stable for plant-gain mismatches
 * r in at least [0.4, 1.5] (the deadbeat pure-integral law with
 * ki = 1 tolerates r < 2 but reacts harder).
 */
struct PidGains
{
    double kp = 0.1;  //!< Proportional gain.
    double ki = 0.6;  //!< Integral gain (1.0, kp=kd=0 is deadbeat).
    double kd = 0.05; //!< Derivative gain.
};

/**
 * A PID generalisation of the paper's integral law:
 *
 *     s(t) = s_min + (kp e(t) + ki sum e + kd (e(t) - e(t-1))) / b
 *
 * with anti-windup: the integral term is clamped so the command stays
 * inside the actuation range. With kp = kd = 0, ki = 1 this reduces
 * exactly to the deadbeat law.
 */
class PidPolicy final : public ControlPolicy
{
  public:
    /** Throws std::invalid_argument unless ki is finite and > 0 and
     *  kp, kd are finite and >= 0. */
    explicit PidPolicy(const PidGains &gains = {});

    std::string name() const override;
    void begin(const ControlSetup &setup) override;
    double update(double observed_rate) override;

    const PidGains &gains() const { return gains_; }

  private:
    PidGains gains_;
    ControlSetup setup_{};
    double integral_ = 0.0;
    double prev_error_ = 0.0;
    bool has_prev_ = false;
};

/** Tuning of the gain-scheduled adaptive law. */
struct GainScheduleConfig
{
    /**
     * Exponential-smoothing factor of the online baseline estimate in
     * (0, 1]; 1 trusts only the newest observation.
     */
    double estimate_alpha = 0.5;
    /** Integral gain applied against the *estimated* baseline. */
    double gain = 1.0;
    /** Clamp of the estimate as a multiple of the calibrated b. */
    double min_scale = 0.1;
    double max_scale = 10.0;
};

/**
 * A gain-scheduled (adaptive) integral law. The deadbeat law assumes
 * the plant gain is the calibrated baseline rate b; under a capacity
 * disturbance (DVFS cap, oversubscription) the true gain b_eff
 * differs and the closed-loop pole drifts to 1 - k b_eff/b. This
 * policy estimates b_eff online from (observed rate / last command)
 * and schedules the integral gain as k / b_hat, keeping the loop
 * near-deadbeat at every operating point.
 */
class GainScheduledPolicy final : public ControlPolicy
{
  public:
    /** Throws std::invalid_argument unless alpha is in (0, 1], the gain
     *  and min_scale are finite and > 0, and max_scale >= min_scale
     *  (NaN fails each). */
    explicit GainScheduledPolicy(const GainScheduleConfig &config = {});

    std::string name() const override;
    void begin(const ControlSetup &setup) override;
    double update(double observed_rate) override;

    /** Current plant-gain estimate b_hat (beats/s per unit speedup). */
    double estimatedBaseline() const { return b_hat_; }

  private:
    GainScheduleConfig config_;
    ControlSetup setup_{};
    double speedup_ = 1.0;
    double b_hat_ = 0.0;
};

/** Factory helpers for SessionOptions. */
PolicyFactory makeDeadbeatPolicy(double gain = 1.0);
PolicyFactory makePidPolicy(const PidGains &gains = {});
PolicyFactory
makeGainScheduledPolicy(const GainScheduleConfig &config = {});

} // namespace powerdial::core

#endif // POWERDIAL_CORE_CONTROL_POLICY_H

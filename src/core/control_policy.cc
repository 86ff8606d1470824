#include "core/control_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::core {

// Every check below is written so that NaN, which fails every ordered
// comparison, fails the check too.

namespace {

/** True when @p value is finite and > 0. */
bool
finitePositive(double value)
{
    return std::isfinite(value) && value > 0.0;
}

/**
 * Reject a run setup no law can follow: the check every policy's
 * begin() makes. @p law names the policy in the message.
 */
void
checkSetup(const ControlSetup &setup, const char *law)
{
    if (!finitePositive(setup.baseline_rate))
        throw std::invalid_argument(
            std::string(law) + ": baseline rate must be finite and > 0");
    if (!finitePositive(setup.target_rate))
        throw std::invalid_argument(
            std::string(law) + ": target rate must be finite and > 0");
    if (!(setup.max_speedup >= setup.min_speedup))
        throw std::invalid_argument(
            std::string(law) + ": max < min speedup, or one is NaN");
}

} // namespace

// ---------------------------------------------------------------------------
// DeadbeatPolicy
// ---------------------------------------------------------------------------

DeadbeatPolicy::DeadbeatPolicy(double gain) : gain_(gain)
{
    if (!finitePositive(gain_))
        throw std::invalid_argument(
            "DeadbeatPolicy: gain must be finite and > 0");
}

std::string
DeadbeatPolicy::name() const
{
    return gain_ == 1.0 ? "deadbeat" : "integral";
}

void
DeadbeatPolicy::begin(const ControlSetup &setup)
{
    checkSetup(setup, "DeadbeatPolicy");
    setup_ = setup;
    speedup_ = setup.min_speedup;
}

double
DeadbeatPolicy::update(double observed_rate)
{
    if (setup_.baseline_rate <= 0.0)
        throw std::logic_error("DeadbeatPolicy: update before begin");
    const double error = setup_.target_rate - observed_rate;
    speedup_ += gain_ * error / setup_.baseline_rate;
    speedup_ =
        std::clamp(speedup_, setup_.min_speedup, setup_.max_speedup);
    return speedup_;
}

// ---------------------------------------------------------------------------
// PidPolicy
// ---------------------------------------------------------------------------

PidPolicy::PidPolicy(const PidGains &gains) : gains_(gains)
{
    if (!finitePositive(gains_.ki))
        throw std::invalid_argument("PidPolicy: ki must be finite and > 0");
    if (!(std::isfinite(gains_.kp) && gains_.kp >= 0.0 &&
          std::isfinite(gains_.kd) && gains_.kd >= 0.0))
        throw std::invalid_argument(
            "PidPolicy: kp/kd must be finite and >= 0");
}

std::string
PidPolicy::name() const
{
    return "pid";
}

void
PidPolicy::begin(const ControlSetup &setup)
{
    checkSetup(setup, "PidPolicy");
    setup_ = setup;
    integral_ = 0.0;
    prev_error_ = 0.0;
    has_prev_ = false;
}

double
PidPolicy::update(double observed_rate)
{
    if (setup_.baseline_rate <= 0.0)
        throw std::logic_error("PidPolicy: update before begin");
    const double error = setup_.target_rate - observed_rate;
    integral_ += error;
    const double derivative = has_prev_ ? error - prev_error_ : 0.0;
    prev_error_ = error;
    has_prev_ = true;

    const double b = setup_.baseline_rate;
    double s = setup_.min_speedup +
               (gains_.kp * error + gains_.ki * integral_ +
                gains_.kd * derivative) /
                   b;
    // Anti-windup: pull the integral back so the command it implies
    // stays within the actuation range (the paper's clamp on s(t)
    // serves the same purpose for the pure integral law).
    if (s > setup_.max_speedup) {
        integral_ -=
            (s - setup_.max_speedup) * b / gains_.ki;
        s = setup_.max_speedup;
    } else if (s < setup_.min_speedup) {
        integral_ -=
            (s - setup_.min_speedup) * b / gains_.ki;
        s = setup_.min_speedup;
    }
    return s;
}

// ---------------------------------------------------------------------------
// GainScheduledPolicy
// ---------------------------------------------------------------------------

GainScheduledPolicy::GainScheduledPolicy(const GainScheduleConfig &config)
    : config_(config)
{
    if (!(config_.estimate_alpha > 0.0 && config_.estimate_alpha <= 1.0))
        throw std::invalid_argument(
            "GainScheduledPolicy: alpha must be in (0, 1]");
    if (!finitePositive(config_.gain))
        throw std::invalid_argument(
            "GainScheduledPolicy: gain must be finite and > 0");
    if (!(finitePositive(config_.min_scale) &&
          config_.max_scale >= config_.min_scale))
        throw std::invalid_argument(
            "GainScheduledPolicy: bad estimate clamp");
}

std::string
GainScheduledPolicy::name() const
{
    return "gain-scheduled";
}

void
GainScheduledPolicy::begin(const ControlSetup &setup)
{
    checkSetup(setup, "GainScheduledPolicy");
    setup_ = setup;
    speedup_ = setup.min_speedup;
    b_hat_ = setup.baseline_rate; // Start from the calibrated model.
}

double
GainScheduledPolicy::update(double observed_rate)
{
    if (setup_.baseline_rate <= 0.0)
        throw std::logic_error(
            "GainScheduledPolicy: update before begin");
    // Refresh the plant-gain estimate from the last commanded speedup:
    // the Equation 2 model says h = b_eff * s, so h/s observes b_eff.
    if (speedup_ > 0.0 && observed_rate > 0.0) {
        const double sample = observed_rate / speedup_;
        b_hat_ = config_.estimate_alpha * sample +
                 (1.0 - config_.estimate_alpha) * b_hat_;
        b_hat_ = std::clamp(
            b_hat_, config_.min_scale * setup_.baseline_rate,
            config_.max_scale * setup_.baseline_rate);
    }
    const double error = setup_.target_rate - observed_rate;
    speedup_ += config_.gain * error / b_hat_;
    speedup_ =
        std::clamp(speedup_, setup_.min_speedup, setup_.max_speedup);
    return speedup_;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PolicyFactory
makeDeadbeatPolicy(double gain)
{
    return [gain] { return std::make_unique<DeadbeatPolicy>(gain); };
}

PolicyFactory
makePidPolicy(const PidGains &gains)
{
    return [gains] { return std::make_unique<PidPolicy>(gains); };
}

PolicyFactory
makeGainScheduledPolicy(const GainScheduleConfig &config)
{
    return
        [config] { return std::make_unique<GainScheduledPolicy>(config); };
}

} // namespace powerdial::core

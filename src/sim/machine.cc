#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::sim {

Machine::Machine(const Config &config) : scale_(config.scale)
{
    reset(config);
}

void
Machine::reset(const Config &config)
{
    if (config.cores == 0)
        throw std::invalid_argument("Machine: need at least one core");
    if (!(std::isfinite(config.speed_factor) && config.speed_factor > 0.0))
        throw std::invalid_argument(
            "Machine: speed factor must be finite and > 0");
    PowerModel power(config.power); // Validates before any change.
    scale_ = config.scale;
    power_ = power;
    cores_ = config.cores;
    speed_factor_ = config.speed_factor;
    dyn_frac_.resize(scale_.states());
    for (std::size_t s = 0; s < dyn_frac_.size(); ++s)
        dyn_frac_[s] = power_.dynamicFraction(scale_.frequencyHz(s));
    reset();
}

void
Machine::reset()
{
    pstate_ = 0;
    pstate_cap_ = 0;
    share_ = 1.0;
    utilization_ = -1.0;
    clock_.reset();
    energy_j_ = 0.0;
    refreshPower();
}

void
Machine::refreshPower()
{
    freq_hz_ = scale_.frequencyHz(pstate_);
    speed_ratio_ = std::min(1.0, effectiveHz() / scale_.maxHz());
    const double util = utilization_ >= 0.0
        ? utilization_
        : 1.0 / static_cast<double>(cores_);
    busy_watts_ = power_.wattsFor(dyn_frac_[pstate_], util);
    idle_watts_ = power_.wattsFor(dyn_frac_[pstate_], 0.0);
}

void
Machine::setPState(std::size_t state)
{
    if (state >= scale_.states())
        throw std::out_of_range("Machine: bad P-state");
    pstate_ = std::max(state, pstate_cap_);
    refreshPower();
}

void
Machine::setPStateCap(std::size_t state)
{
    if (state >= scale_.states())
        throw std::out_of_range("Machine: bad P-state cap");
    pstate_cap_ = state;
    if (pstate_ < pstate_cap_)
        pstate_ = pstate_cap_;
    refreshPower();
}

// Every input check below is written so that NaN, which fails every
// ordered comparison, fails the check too.

void
Machine::setShare(double share)
{
    if (!(share > 0.0 && share <= 1.0))
        throw std::invalid_argument("Machine: share must be in (0, 1]");
    share_ = share;
}

void
Machine::setUtilization(double utilization)
{
    if (utilization < 0.0)
        utilization_ = -1.0;
    else if (utilization >= 0.0)
        utilization_ = std::min(utilization, 1.0);
    else
        throw std::invalid_argument("Machine: utilization is NaN");
    refreshPower();
}

void
Machine::idleUntil(double t)
{
    if (t > clock_.now())
        idleFor(t - clock_.now());
}

} // namespace powerdial::sim

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
    if (config.speed_factor <= 0.0)
        throw std::invalid_argument(
            "Machine: speed factor must be > 0");
    scale_ = config.scale;
    power_ = PowerModel(config.power);
    cores_ = config.cores;
    speed_factor_ = config.speed_factor;
    pstate_ = 0;
    pstate_cap_ = 0;
    share_ = 1.0;
    utilization_ = -1.0;
    clock_.reset();
    energy_j_ = 0.0;
    trace_.clear();
    refreshPower();
}

void
Machine::refreshPower()
{
    freq_hz_ = scale_.frequencyHz(pstate_);
    const double util = utilization_ >= 0.0
        ? utilization_
        : 1.0 / static_cast<double>(cores_);
    busy_watts_ = power_.watts(freq_hz_, util);
    idle_watts_ = power_.watts(freq_hz_, 0.0);
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

void
Machine::account(double dt, double watts)
{
    if (dt <= 0.0)
        return;
    const double t0 = clock_.now();
    clock_.advance(dt);
    energy_j_ += watts * dt;
    if (!trace_.empty() && trace_.back().watts == watts &&
        trace_.back().end_s == t0) {
        trace_.back().end_s = clock_.now();
    } else {
        trace_.push_back({t0, clock_.now(), watts});
    }
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

double
Machine::execute(double cycles)
{
    if (!(cycles >= 0.0))
        throw std::invalid_argument("Machine: negative or NaN work");
    if (cycles == 0.0)
        return 0.0;
    // Multiplying by a speed factor of exactly 1.0 is an IEEE
    // identity, so the default class retires work bit-identically to
    // the pre-heterogeneity machine.
    const double dt = cycles / (effectiveHz() * share_);
    account(dt, busy_watts_);
    return dt;
}

void
Machine::idleFor(double dt)
{
    if (!(dt >= 0.0))
        throw std::invalid_argument(
            "Machine: negative or NaN idle time");
    account(dt, idle_watts_);
}

void
Machine::idleUntil(double t)
{
    if (t > clock_.now())
        idleFor(t - clock_.now());
}

double
Machine::meanWatts(double t0, double t1) const
{
    if (t1 <= t0)
        return 0.0;
    double joules = 0.0;
    for (const auto &seg : trace_) {
        const double lo = std::max(seg.start_s, t0);
        const double hi = std::min(seg.end_s, t1);
        if (hi > lo)
            joules += seg.watts * (hi - lo);
    }
    return joules / (t1 - t0);
}

} // namespace powerdial::sim

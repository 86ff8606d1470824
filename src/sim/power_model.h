/**
 * @file
 * Full-system power model for the simulated server.
 *
 * Stands in for the WattsUp wall-power meter of the paper (section 5.1):
 * "The measured power ranges from 220 watts (at full load) to 80 watts
 * (idle), with a typical idle power consumption of approximately 90 watts."
 *
 * The model decomposes full-system power into a frequency-independent
 * idle floor and a dynamic component that scales with utilisation and
 * with f * V(f)^2 (the classic CMOS dynamic-power relation), where the
 * core voltage V(f) scales linearly with frequency between its minimum
 * and maximum operating points.
 */
#ifndef POWERDIAL_SIM_POWER_MODEL_H
#define POWERDIAL_SIM_POWER_MODEL_H

#include <algorithm>

#include "sim/frequency.h"

namespace powerdial::sim {

/** Tunable parameters of the server power model. */
struct PowerModelParams
{
    /** Idle full-system power in watts (paper: ~90 W typical). */
    double idle_watts = 90.0;
    /** Full-system power at max frequency, 100% utilisation (paper: 220 W). */
    double peak_watts = 220.0;
    /** Core voltage at the lowest frequency, volts. */
    double v_min = 0.95;
    /** Core voltage at the highest frequency, volts. */
    double v_max = 1.10;
    /** Lowest frequency of the voltage ramp, Hz. */
    double f_min_hz = 1.60 * kGHz;
    /** Highest frequency of the voltage ramp, Hz. */
    double f_max_hz = 2.40 * kGHz;
};

/**
 * Maps (frequency, utilisation) to full-system power in watts.
 *
 * Invariants (verified by the test suite):
 *  - power(f, 0) == idle watts for every f;
 *  - power(f, u) is monotonically non-decreasing in both f and u;
 *  - power(f_max, 1) == peak watts.
 */
class PowerModel
{
  public:
    PowerModel() : PowerModel(PowerModelParams{}) {}
    /** Throws std::invalid_argument unless 0 <= idle < peak,
     *  0 < f_min < f_max and 0 < v_min <= v_max, all finite. */
    explicit PowerModel(const PowerModelParams &params);

    /**
     * Full-system power in watts:
     * wattsFor(dynamicFraction(freq_hz), utilization).
     *
     * @param freq_hz     Current clock frequency.
     * @param utilization Fraction of compute capacity in use, in [0, 1].
     */
    double
    watts(double freq_hz, double utilization) const
    {
        return wattsFor(dynamicFraction(freq_hz), utilization);
    }

    /**
     * The dynamic-power fraction at @p freq_hz: f V(f)^2 over
     * f_max V(f_max)^2. It depends on the frequency alone, so a
     * machine computes it once per P-state (sim::Machine::wattsAt).
     */
    double dynamicFraction(double freq_hz) const;

    /**
     * Full-system power in watts at dynamic fraction @p dyn_frac (from
     * dynamicFraction) and @p utilization (clamped to [0, 1]).
     */
    double
    wattsFor(double dyn_frac, double utilization) const
    {
        const double u = std::clamp(utilization, 0.0, 1.0);
        const double dyn_max = params_.peak_watts - params_.idle_watts;
        return params_.idle_watts + u * dyn_frac * dyn_max;
    }

    /** The idle floor in watts. */
    double idleWatts() const { return params_.idle_watts; }

    /** Power at max frequency and full utilisation, watts. */
    double peakWatts() const { return params_.peak_watts; }

    /** Core voltage at @p freq_hz (linear ramp, clamped at the ends). */
    double voltage(double freq_hz) const;

    const PowerModelParams &params() const { return params_; }

  private:
    PowerModelParams params_;
    /** Dynamic-power normaliser: f_max * V(f_max)^2. */
    double dyn_norm_;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_POWER_MODEL_H

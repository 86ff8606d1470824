/**
 * @file
 * WattsUp-style power sampler over a machine's power trace.
 *
 * The paper samples full-system power at 1-second intervals with a
 * WattsUp device (section 5.1) and reports the mean of those samples.
 * This meter reproduces that measurement procedure against the simulated
 * machine's piecewise-constant power trace.
 */
#ifndef POWERDIAL_SIM_ENERGY_METER_H
#define POWERDIAL_SIM_ENERGY_METER_H

#include <vector>

#include "sim/machine.h"

namespace powerdial::sim {

/** One power sample: time and instantaneous-average power over the bin. */
struct PowerSample
{
    double time_s;  //!< End of the sampling bin, virtual seconds.
    double watts;   //!< Mean power over the bin.
};

/**
 * Samples a machine's power trace at a fixed interval, like the paper's
 * WattsUp meter.
 */
class EnergyMeter
{
  public:
    /**
     * @param interval_s Sampling interval in virtual seconds (paper: 1 s);
     *                   must be finite and > 0.
     */
    explicit EnergyMeter(double interval_s = 1.0);

    /**
     * Sample machine power from virtual time @p t0 to @p t1.
     * Each sample is the mean power over one interval-wide bin.
     * Throws std::logic_error when @p machine does not record its
     * power trace.
     */
    std::vector<PowerSample> sample(const Machine &machine, double t0,
                                    double t1) const;

    /** Sample the machine's entire history. */
    std::vector<PowerSample>
    sample(const Machine &machine) const
    {
        return sample(machine, 0.0, machine.now());
    }

    /** Mean of the samples (the statistic Figures 6 and 8 report). */
    static double meanWatts(const std::vector<PowerSample> &samples);

    double intervalSeconds() const { return interval_s_; }

  private:
    double interval_s_;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_ENERGY_METER_H

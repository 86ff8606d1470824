#include "sim/energy_meter.h"

#include <cmath>
#include <stdexcept>

namespace powerdial::sim {

EnergyMeter::EnergyMeter(double interval_s) : interval_s_(interval_s)
{
    if (!(interval_s_ > 0.0 && std::isfinite(interval_s_)))
        throw std::invalid_argument(
            "EnergyMeter: interval must be finite and > 0");
}

std::vector<PowerSample>
EnergyMeter::sample(const Machine &machine, double t0, double t1) const
{
    if (!machine.recordsPowerTrace())
        throw std::logic_error(
            "EnergyMeter: the machine does not record its power trace");
    std::vector<PowerSample> out;
    for (double t = t0; t + interval_s_ <= t1 + 1e-12; t += interval_s_) {
        const double end = t + interval_s_;
        out.push_back({end, machine.meanWatts(t, end)});
    }
    return out;
}

double
EnergyMeter::meanWatts(const std::vector<PowerSample> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : samples)
        sum += s.watts;
    return sum / static_cast<double>(samples.size());
}

} // namespace powerdial::sim

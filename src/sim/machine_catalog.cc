#include "sim/machine_catalog.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace powerdial::sim {

MachineCatalog::MachineCatalog(std::vector<MachineClass> classes)
    : classes_(std::move(classes))
{
    if (classes_.empty())
        throw std::invalid_argument(
            "MachineCatalog: need at least one class");
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        const MachineClass &c = classes_[i];
        if (c.name.empty())
            throw std::invalid_argument(
                "MachineCatalog: class names must be non-empty");
        if (c.config.cores == 0)
            throw std::invalid_argument(
                "MachineCatalog: class needs at least one core");
        if (!(std::isfinite(c.config.speed_factor) &&
              c.config.speed_factor > 0.0))
            throw std::invalid_argument(
                "MachineCatalog: class speed factor must be finite and "
                "> 0");
        for (std::size_t j = 0; j < i; ++j)
            if (classes_[j].name == c.name)
                throw std::invalid_argument(
                    "MachineCatalog: duplicate class name \"" +
                    c.name + "\"");
    }
}

MachineCatalog
MachineCatalog::homogeneous(const Machine::Config &config,
                            std::string name)
{
    return MachineCatalog({{std::move(name), config}});
}

MachineCatalog
MachineCatalog::bigLittle()
{
    MachineClass big;
    big.name = "big";
    big.config = Machine::Config{}; // The paper's Xeon E5530 server.

    MachineClass little;
    little.name = "little";
    little.config.scale = FrequencyScale(
        {1.6 * kGHz, 1.4 * kGHz, 1.2 * kGHz, 1.0 * kGHz, 0.8 * kGHz});
    little.config.power.idle_watts = 40.0;
    little.config.power.peak_watts = 95.0;
    little.config.power.v_min = 0.80;
    little.config.power.v_max = 1.00;
    little.config.power.f_min_hz = 0.8 * kGHz;
    little.config.power.f_max_hz = 1.6 * kGHz;
    little.config.cores = 4;
    little.config.speed_factor = 0.6;
    return MachineCatalog({std::move(big), std::move(little)});
}

std::size_t
MachineCatalog::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < classes_.size(); ++i)
        if (classes_[i].name == name)
            return i;
    throw std::invalid_argument("MachineCatalog: no class named \"" +
                                name + "\"");
}

double
MachineCatalog::referenceEffectiveHz() const
{
    double best = 0.0;
    for (const MachineClass &c : classes_)
        best = std::max(best,
                        c.config.scale.maxHz() * c.config.speed_factor);
    return best;
}

} // namespace powerdial::sim

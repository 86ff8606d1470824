#include "sim/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace powerdial::sim {

Cluster::Cluster(std::size_t machines, const Machine::Config &config)
    : catalog_(MachineCatalog::homogeneous(config)),
      class_of_(machines, 0)
{
    if (machines == 0)
        throw std::invalid_argument("Cluster: need at least one machine");
    provision();
}

Cluster::Cluster(const MachineCatalog &catalog,
                 const std::vector<std::size_t> &class_mix)
    : catalog_(catalog)
{
    if (catalog_.empty())
        throw std::invalid_argument("Cluster: empty machine catalog");
    if (class_mix.size() != catalog_.size())
        throw std::invalid_argument(
            "Cluster: class mix must be parallel to the catalog");
    for (std::size_t c = 0; c < class_mix.size(); ++c)
        for (std::size_t i = 0; i < class_mix[c]; ++i)
            class_of_.push_back(c);
    if (class_of_.empty())
        throw std::invalid_argument("Cluster: need at least one machine");
    provision();
}

void
Cluster::provision()
{
    machines_.reserve(class_of_.size());
    for (const std::size_t c : class_of_)
        machines_.emplace_back(catalog_.at(c).config);
    words_ = (class_of_.size() + 63) / 64;
    clearPlacement();
    heterogeneous_ = false;
    for (const std::size_t c : class_of_)
        if (c != class_of_.front())
            heterogeneous_ = true;
    reference_effective_hz_ = 0.0;
    for (const Machine &m : machines_)
        reference_effective_hz_ =
            std::max(reference_effective_hz_,
                     m.scale().maxHz() * m.speedFactor());
}

void
Cluster::place(std::size_t i)
{
    const std::size_t count = active_.at(i);
    moveOccupancy(i, count, count + 1);
    active_[i] = count + 1;
}

void
Cluster::release(std::size_t i)
{
    const std::size_t count = active_.at(i);
    if (count == 0)
        throw std::logic_error("Cluster: release on an idle machine");
    moveOccupancy(i, count, count - 1);
    active_[i] = count - 1;
}

void
Cluster::moveOccupancy(std::size_t i, std::size_t from, std::size_t to)
{
    if (to >= population_.size()) {
        population_.resize(to + 1, 0);
        occupancy_bits_.resize((to + 1) * words_, 0);
    }
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    occupancy_bits_[from * words_ + i / 64] &= ~bit;
    occupancy_bits_[to * words_ + i / 64] |= bit;
    --population_[from];
    ++population_[to];
    // Counts move by one, so the minimum moves down to a release's
    // target, or up past a place's source once that count empties.
    if (to < min_active_ ||
        (from == min_active_ && population_[from] == 0))
        min_active_ = to;
}

std::size_t
Cluster::leastLoaded() const
{
    const std::uint64_t *bits =
        occupancy_bits_.data() + min_active_ * words_;
    for (std::size_t w = 0; w < words_; ++w)
        if (bits[w] != 0)
            return w * 64 +
                static_cast<std::size_t>(__builtin_ctzll(bits[w]));
    throw std::logic_error("Cluster: occupancy index out of step");
}

std::size_t
Cluster::totalActive() const
{
    std::size_t total = 0;
    for (const std::size_t count : active_)
        total += count;
    return total;
}

void
Cluster::clearPlacement()
{
    const std::size_t n = class_of_.size();
    active_.assign(n, 0);
    // Every machine at count 0: count 0's bitmap has bits [0, n) set.
    occupancy_bits_.assign(words_, ~std::uint64_t{0});
    if (n % 64 != 0)
        occupancy_bits_.back() = (std::uint64_t{1} << (n % 64)) - 1;
    population_.assign(1, n);
    min_active_ = 0;
}

double
Cluster::dynamicWatts() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
        const Machine &m = machines_[i];
        total += m.wattsAt(m.pstate(), loadOf(i, active_[i]).utilization);
    }
    return total;
}

std::size_t
Cluster::totalCores() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < machines_.size(); ++i)
        total += coresOf(i);
    return total;
}

std::vector<std::size_t>
Cluster::balance(std::size_t instances) const
{
    const std::size_t n = machines_.size();
    std::vector<std::size_t> placement(n, instances / n);
    // Distribute the remainder one instance at a time, least-loaded first.
    for (std::size_t i = 0; i < instances % n; ++i)
        ++placement[i];
    return placement;
}

MachineLoad
Cluster::loadForCores(std::size_t cores, std::size_t instances)
{
    MachineLoad load{};
    load.instances = instances;
    if (instances == 0) {
        load.utilization = 0.0;
        load.per_instance_share = 1.0;
        load.required_speedup = 1.0;
        return load;
    }
    const double c = static_cast<double>(cores);
    const double m = static_cast<double>(instances);
    load.utilization = std::min(1.0, m / c);
    load.per_instance_share = std::min(1.0, c / m);
    load.required_speedup = std::max(1.0, m / c);
    return load;
}

MachineLoad
Cluster::loadOf(std::size_t instances) const
{
    return loadForCores(catalog_.at(0).config.cores, instances);
}

MachineLoad
Cluster::loadOf(std::size_t machine, std::size_t instances) const
{
    return loadForCores(coresOf(machine), instances);
}

double
Cluster::steadyStateWatts(const std::vector<std::size_t> &placement,
                          std::size_t pstate) const
{
    if (placement.size() != machines_.size())
        throw std::invalid_argument("Cluster: placement size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
        const Machine &m = machines_[i];
        const std::size_t state =
            std::min(pstate, m.scale().lowestState());
        total += m.wattsAt(state, loadOf(i, placement[i]).utilization);
    }
    return total;
}

double
Cluster::maxRequiredSpeedup(const std::vector<std::size_t> &placement) const
{
    double worst = 1.0;
    for (std::size_t i = 0; i < placement.size(); ++i)
        worst = std::max(worst, loadOf(i, placement[i]).required_speedup);
    return worst;
}

double
Cluster::minInstanceShare(const std::vector<std::size_t> &placement) const
{
    return 1.0 / maxRequiredSpeedup(placement);
}

} // namespace powerdial::sim

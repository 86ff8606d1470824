#include "core/response_model.h"

#include <algorithm>
#include <stdexcept>

namespace powerdial::core {

ResponseModel::ResponseModel(std::vector<OperatingPoint> all_points,
                             std::size_t baseline, double baseline_seconds,
                             double baseline_rate, double qos_cap)
    : all_(std::move(all_points)), baseline_(baseline),
      baseline_seconds_(baseline_seconds), baseline_rate_(baseline_rate)
{
    if (all_.empty())
        throw std::invalid_argument("ResponseModel: no operating points");
    if (baseline_seconds_ <= 0.0 || baseline_rate_ <= 0.0)
        throw std::invalid_argument("ResponseModel: bad baseline metrics");

    std::vector<OperatingPoint> admissible;
    bool saw_baseline = false;
    for (const auto &p : all_) {
        if (p.combination == baseline_)
            saw_baseline = true;
        if (qos_cap >= 0.0 && p.qos_loss > qos_cap &&
            p.combination != baseline_) {
            continue; // Excluded by the user's QoS-loss cap.
        }
        admissible.push_back(p);
    }
    if (!saw_baseline)
        throw std::invalid_argument("ResponseModel: baseline point missing");
    pareto_ = paretoFrontier(admissible);

    // Sorting (combination, index) pairs puts each combination's first
    // point at the head of its run; unique keeps only that head.
    first_point_.reserve(all_.size());
    for (std::size_t i = 0; i < all_.size(); ++i)
        first_point_.emplace_back(all_[i].combination, i);
    std::sort(first_point_.begin(), first_point_.end());
    first_point_.erase(
        std::unique(first_point_.begin(), first_point_.end(),
                    [](const auto &a, const auto &b) {
                        return a.first == b.first;
                    }),
        first_point_.end());
}

const OperatingPoint *
ResponseModel::pointOf(std::size_t combination) const
{
    const auto it = std::lower_bound(
        first_point_.begin(), first_point_.end(), combination,
        [](const auto &entry, std::size_t c) { return entry.first < c; });
    return it != first_point_.end() && it->first == combination
        ? &all_[it->second]
        : nullptr;
}

double
ResponseModel::maxSpeedup() const
{
    return fastest().speedup;
}

const OperatingPoint &
ResponseModel::fastest() const
{
    if (pareto_.empty())
        throw std::logic_error("ResponseModel: empty frontier");
    return pareto_.back();
}

const OperatingPoint &
ResponseModel::baselinePoint() const
{
    for (const auto &p : pareto_)
        if (p.combination == baseline_)
            return p;
    // The baseline may be dominated on rare degenerate frontiers; fall
    // back to the slowest Pareto point.
    return pareto_.front();
}

const OperatingPoint &
ResponseModel::atLeast(double speedup) const
{
    for (const auto &p : pareto_)
        if (p.speedup >= speedup)
            return p;
    return fastest();
}

const OperatingPoint &
ResponseModel::bestWithinQoS(double qos_bound) const
{
    const OperatingPoint *best = &baselinePoint();
    for (const auto &p : pareto_) {
        if (p.qos_loss <= qos_bound && p.speedup >= best->speedup)
            best = &p;
    }
    return *best;
}

double
ResponseModel::qosLossAtSpeedup(double speedup) const
{
    if (pareto_.empty())
        throw std::logic_error("ResponseModel: empty frontier");
    if (speedup <= pareto_.front().speedup)
        return pareto_.front().qos_loss;
    if (speedup >= pareto_.back().speedup)
        return pareto_.back().qos_loss;
    for (std::size_t i = 0; i + 1 < pareto_.size(); ++i) {
        const auto &a = pareto_[i];
        const auto &b = pareto_[i + 1];
        if (speedup >= a.speedup && speedup <= b.speedup) {
            const double span = b.speedup - a.speedup;
            if (span <= 0.0)
                return a.qos_loss;
            const double t = (speedup - a.speedup) / span;
            return a.qos_loss + t * (b.qos_loss - a.qos_loss);
        }
    }
    return pareto_.back().qos_loss;
}

} // namespace powerdial::core

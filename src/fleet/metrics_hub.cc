#include "fleet/metrics_hub.h"

#include <algorithm>
#include <cmath>

namespace powerdial::fleet {

namespace {

/** Index of the nearest-rank percentile @p p among @p n > 0 sorted
 *  values. */
std::size_t
rankIndex(std::size_t n, double p)
{
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        std::ceil(clamped / 100.0 * static_cast<double>(n));
    const std::size_t index = rank < 1.0
        ? 0
        : static_cast<std::size_t>(rank) - 1;
    return std::min(index, n - 1);
}

} // namespace

double
percentileOf(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[rankIndex(sorted.size(), p)];
}

LatencyPercentiles
latencyPercentiles(double *first, double *last)
{
    LatencyPercentiles out;
    const auto n = static_cast<std::size_t>(last - first);
    if (n == 0)
        return out;
    // The ranks ascend, so each selection only reorders the suffix
    // the previous one left at or above its order statistic.
    const auto select = [&](std::size_t from, double p) {
        const std::size_t index = rankIndex(n, p);
        std::nth_element(first + from, first + index, last);
        return index;
    };
    const std::size_t i50 = select(0, 50.0);
    out.p50 = first[i50];
    const std::size_t i95 = select(i50, 95.0);
    out.p95 = first[i95];
    out.p99 = first[select(i95, 99.0)];
    return out;
}

} // namespace powerdial::fleet

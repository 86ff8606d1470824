#include "fleet/metrics_hub.h"

#include <algorithm>
#include <cmath>

namespace powerdial::fleet {

double
percentileOf(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        std::ceil(clamped / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t index = rank < 1.0
        ? 0
        : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

LatencyPercentiles
latencyPercentiles(std::vector<double> &values)
{
    std::sort(values.begin(), values.end());
    LatencyPercentiles out;
    out.p50 = percentileOf(values, 50.0);
    out.p95 = percentileOf(values, 95.0);
    out.p99 = percentileOf(values, 99.0);
    return out;
}

} // namespace powerdial::fleet

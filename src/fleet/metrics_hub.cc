#include "fleet/metrics_hub.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::fleet {

void
JobProbe::onRunStart(const core::RunStartEvent &)
{
    rate_sum_ = 0.0;
    record_.beats = 0;
    done_ = false;
}

void
JobProbe::onBeat(const core::BeatEvent &event)
{
    rate_sum_ += event.trace.window_rate;
    ++record_.beats;
}

void
JobProbe::onRunEnd(const core::ControlledRun &run)
{
    record_.latency_s = run.seconds;
    record_.qos_loss = run.mean_qos_loss_estimate;
    record_.service_s = run.service_s;
    record_.queue_share_s = run.queue_share_s;
    record_.class_deficit_s = run.class_deficit_s;
    record_.pause_s = run.pause_s;
    record_.mean_rate = record_.beats > 0
        ? rate_sum_ / static_cast<double>(record_.beats)
        : 0.0;
    done_ = true;
}

JobRecord
JobProbe::finish(const sim::Machine &machine)
{
    if (!done_)
        throw std::logic_error("JobProbe: finish before the run ended");
    record_.energy_j = machine.energyJoules();
    done_ = false;
    return record_;
}

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

#include "fleet/metrics_hub.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::fleet {

void
MetricsHub::Probe::onRunStart(const core::RunStartEvent &)
{
    rate_sum_ = 0.0;
    record_.beats = 0;
    done_ = false;
}

void
MetricsHub::Probe::onBeat(const core::BeatEvent &event)
{
    rate_sum_ += event.trace.window_rate;
    ++record_.beats;
}

void
MetricsHub::Probe::onRunEnd(const core::ControlledRun &run)
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

void
MetricsHub::Probe::finish(const sim::Machine &machine)
{
    finishOn(worker_, machine);
}

void
MetricsHub::Probe::finishOn(std::size_t worker,
                            const sim::Machine &machine)
{
    if (!done_)
        throw std::logic_error(
            "MetricsHub::Probe: finish before the run ended");
    record_.energy_j = machine.energyJoules();
    hub_->commit(worker, record_);
    done_ = false;
}

MetricsHub::MetricsHub(std::size_t workers)
    : shards_(workers == 0 ? 1 : workers)
{
}

MetricsHub::Probe
MetricsHub::probe(std::size_t worker, const JobRecord &seed)
{
    if (worker >= shards_.size())
        throw std::out_of_range("MetricsHub: bad worker index");
    return Probe(*this, worker, seed);
}

void
MetricsHub::commit(std::size_t worker, const JobRecord &record)
{
    if (worker >= shards_.size())
        throw std::out_of_range("MetricsHub: bad commit worker index");
    shards_[worker].push_back(record);
}

std::size_t
MetricsHub::committed() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard.size();
    return total;
}

std::vector<JobRecord>
MetricsHub::drain()
{
    std::vector<JobRecord> merged;
    merged.reserve(committed());
    for (auto &shard : shards_) {
        merged.insert(merged.end(), shard.begin(), shard.end());
        shard.clear();
    }
    std::sort(merged.begin(), merged.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.job < b.job;
              });
    return merged;
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

#include <algorithm>
#include <cmath>

#include "heartbeats/heartbeat.h"

namespace powerdial::hb {

Monitor::Monitor(std::size_t window_size) : window_size_(window_size)
{
    if (window_size_ == 0)
        throw std::invalid_argument("Monitor: window size must be >= 1");
    ring_.resize(window_size_);
}

void
Monitor::reset()
{
    count_ = 0;
    latest_timestamp_ = -std::numeric_limits<double>::infinity();
    latest_latency_ = 0.0;
    first_timestamp_ = 0.0;
    ring_head_ = 0;
    window_count_ = 0;
    window_latency_sum_ = 0.0;
}

HeartbeatRecord
Monitor::latest() const
{
    if (count_ == 0)
        throw std::logic_error("Monitor: no heartbeats yet");
    HeartbeatRecord record;
    record.tag = count_ - 1;
    record.timestamp = latest_timestamp_;
    record.latency = latest_latency_;
    record.instant_rate =
        latest_latency_ > 0.0 ? 1.0 / latest_latency_ : 0.0;
    record.window_rate = windowRate();
    record.global_rate = globalRate();
    return record;
}

double
Monitor::windowRate() const
{
    if (window_count_ == 0 || window_latency_sum_ <= 0.0)
        return 0.0;
    return static_cast<double>(window_count_) / window_latency_sum_;
}

double
Monitor::globalRate() const
{
    if (count_ < 2)
        return 0.0;
    const double span = latest_timestamp_ - first_timestamp_;
    return span > 0.0
        ? static_cast<double>(count_ - 1) / span
        : 0.0;
}

WindowStats
Monitor::windowStats() const
{
    WindowStats stats;
    if (window_count_ == 0)
        return stats;
    const double n = static_cast<double>(window_count_);
    stats.min_latency = ring_[ring_head_];
    stats.max_latency = ring_[ring_head_];
    double sum = 0.0, sum_sq = 0.0;
    // Oldest to newest: the sums' rounding depends on the order.
    for (std::size_t i = 0; i < window_count_; ++i) {
        std::size_t slot = ring_head_ + i;
        if (slot >= window_size_)
            slot -= window_size_;
        const double lat = ring_[slot];
        stats.min_latency = std::min(stats.min_latency, lat);
        stats.max_latency = std::max(stats.max_latency, lat);
        sum += lat;
        sum_sq += lat * lat;
    }
    stats.mean_latency = sum / n;
    const double var =
        sum_sq / n - stats.mean_latency * stats.mean_latency;
    stats.stddev_latency = var > 0.0 ? std::sqrt(var) : 0.0;
    return stats;
}

} // namespace powerdial::hb

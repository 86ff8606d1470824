#include <algorithm>
#include <cmath>

#include "heartbeats/heartbeat.h"

namespace powerdial::hb {

Monitor::Monitor(std::size_t window_size, HeartRateTarget target)
    : window_size_(window_size), target_(target)
{
    if (window_size_ == 0)
        throw std::invalid_argument("Monitor: window size must be >= 1");
    if (target_.min_rate < 0.0 || target_.max_rate < target_.min_rate)
        throw std::invalid_argument("Monitor: bad target range");
    ring_.resize(window_size_);
}

const HeartbeatRecord &
Monitor::beat(double now)
{
    // Written so a NaN timestamp fails it too; the first beat compares
    // against the initial -inf.
    if (!(now >= latest_.timestamp))
        throw std::invalid_argument(
            "Monitor: time went backwards or is NaN");
    const double prev = latest_.timestamp;
    latest_.tag = count_;
    latest_.timestamp = now;
    if (count_ == 0) {
        first_timestamp_ = now;
    } else {
        const double latency = now - prev;
        latest_.latency = latency;
        latest_.instant_rate = latency > 0.0 ? 1.0 / latency : 0.0;

        // Add before subtracting the evicted latency: the running
        // sum's rounding depends on that order.
        window_latency_sum_ += latency;
        if (window_count_ < window_size_) {
            ring_[window_count_++] = latency;
        } else {
            window_latency_sum_ -= ring_[ring_head_];
            ring_[ring_head_] = latency;
            if (++ring_head_ == window_size_)
                ring_head_ = 0;
        }
    }
    latest_.window_rate = windowRate();
    const double span = count_ == 0 ? 0.0 : now - first_timestamp_;
    latest_.global_rate =
        span > 0.0 ? static_cast<double>(count_) / span : 0.0;
    ++count_;
    return latest_;
}

const HeartbeatRecord &
Monitor::latest() const
{
    if (count_ == 0)
        throw std::logic_error("Monitor: no heartbeats yet");
    return latest_;
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
    const double span = latest_.timestamp - first_timestamp_;
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

void
Monitor::setTarget(HeartRateTarget target)
{
    if (target.min_rate < 0.0 || target.max_rate < target.min_rate)
        throw std::invalid_argument("Monitor: bad target range");
    target_ = target;
}

} // namespace powerdial::hb

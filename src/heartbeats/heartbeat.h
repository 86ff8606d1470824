/**
 * @file
 * Application Heartbeats framework (Hoffmann et al., ICAC 2010).
 *
 * PowerDial's feedback mechanism (paper section 2.3.1): applications emit
 * a heartbeat at the top of their main control loop; observers (the
 * PowerDial control system) read the measured rates. The target rate
 * belongs to the control law (core::ControlSetup), not to the monitor.
 * This implementation is clock-agnostic — callers supply timestamps,
 * which in this repository come from the simulated machine's virtual
 * clock.
 */
#ifndef POWERDIAL_HEARTBEATS_HEARTBEAT_H
#define POWERDIAL_HEARTBEATS_HEARTBEAT_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace powerdial::hb {

/**
 * One heartbeat, with the rates observable at the time it was emitted
 * (Monitor::latest derives the three rates when it is read).
 */
struct HeartbeatRecord
{
    std::uint64_t tag;   //!< Sequence number, starting at 0.
    double timestamp;    //!< Emission time, seconds.
    double latency;      //!< Time since the previous beat (0 for the first).
    double instant_rate; //!< 1 / latency (0 for the first beat).
    double window_rate;  //!< Mean rate over the sliding window.
    double global_rate;  //!< Mean rate since the first beat.
};

/**
 * Latency statistics over the sliding window — the summary the real
 * Application Heartbeats API exposes to external observers.
 */
struct WindowStats
{
    double min_latency = 0.0;
    double max_latency = 0.0;
    double mean_latency = 0.0;
    double stddev_latency = 0.0;
};

/**
 * The heartbeat registry for one application instance.
 *
 * Keeps O(window) state: the latest beat's timestamp and latency, the
 * first beat's timestamp, the beat count, and a fixed ring of the most
 * recent latencies for window-rate queries (the paper's figures use a
 * sliding mean over the last twenty beats). Emitting a beat only
 * advances that state — it never allocates and computes no rate; the
 * rates are derived when read.
 */
class Monitor
{
  public:
    /**
     * @param window_size Beats in the sliding window (must be >= 1).
     */
    explicit Monitor(std::size_t window_size);

    /**
     * Emit a heartbeat at time @p now (seconds). Timestamps must be
     * non-decreasing (and not NaN); latest() reads the new record.
     */
    void beat(double now);

    /** Forget every beat, keeping the window size and ring storage:
     *  the monitor is then as freshly constructed. */
    void reset();

    /** Total beats emitted. */
    std::size_t count() const { return count_; }

    /**
     * The most recent heartbeat, its rates derived from the current
     * state. Throws if no beat was emitted.
     */
    HeartbeatRecord latest() const;

    /**
     * Heart rate over the sliding window, beats/second.
     * Returns 0 before the second beat.
     */
    double windowRate() const;

    /** Heart rate since the first beat, beats/second (0 before 2 beats). */
    double globalRate() const;

    /** Latency statistics over the current window (zeros if empty). */
    WindowStats windowStats() const;

    /** Sliding-window size in beats. */
    std::size_t windowSize() const { return window_size_; }

  private:
    std::size_t window_size_;
    std::size_t count_ = 0;
    /** The latest beat's timestamp; -inf before the first beat, so the
     *  first beat passes the same ordering check as every later one. */
    double latest_timestamp_ = -std::numeric_limits<double>::infinity();
    double latest_latency_ = 0.0; //!< 0 until the second beat.
    double first_timestamp_ = 0.0;
    /** Window latencies, oldest at ring_head_ once the ring is full. */
    std::vector<double> ring_;
    std::size_t ring_head_ = 0;
    std::size_t window_count_ = 0;
    double window_latency_sum_ = 0.0;
};

inline void
Monitor::beat(double now)
{
    // Written so a NaN timestamp fails it too; the first beat compares
    // against the initial -inf.
    if (!(now >= latest_timestamp_))
        throw std::invalid_argument(
            "Monitor: time went backwards or is NaN");
    if (count_ == 0) {
        first_timestamp_ = now;
    } else {
        const double latency = now - latest_timestamp_;
        latest_latency_ = latency;
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
    latest_timestamp_ = now;
    ++count_;
}

} // namespace powerdial::hb

#endif // POWERDIAL_HEARTBEATS_HEARTBEAT_H

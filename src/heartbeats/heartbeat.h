/**
 * @file
 * Application Heartbeats framework (Hoffmann et al., ICAC 2010).
 *
 * PowerDial's feedback mechanism (paper section 2.3.1): applications emit
 * a heartbeat at the top of their main control loop and declare a target
 * heart-rate range; observers (the PowerDial control system) read the
 * measured rates. This implementation is clock-agnostic — callers supply
 * timestamps, which in this repository come from the simulated machine's
 * virtual clock.
 */
#ifndef POWERDIAL_HEARTBEATS_HEARTBEAT_H
#define POWERDIAL_HEARTBEATS_HEARTBEAT_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace powerdial::hb {

/** One heartbeat, with the rates observable at the time it was emitted. */
struct HeartbeatRecord
{
    std::uint64_t tag;   //!< Sequence number, starting at 0.
    double timestamp;    //!< Emission time, seconds.
    double latency;      //!< Time since the previous beat (0 for the first).
    double instant_rate; //!< 1 / latency (0 for the first beat).
    double window_rate;  //!< Mean rate over the sliding window.
    double global_rate;  //!< Mean rate since the first beat.
};

/** Target heart-rate range declared by the application. */
struct HeartRateTarget
{
    double min_rate; //!< Minimum acceptable heart rate, beats/second.
    double max_rate; //!< Maximum desired heart rate, beats/second.

    /** Midpoint of the target range — the controller's set point. */
    double midpoint() const { return 0.5 * (min_rate + max_rate); }
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
 * Keeps O(window) state: the most recent record, the first beat's
 * timestamp, the beat count, and a fixed ring of the most recent
 * latencies for window-rate queries (the paper's figures use a sliding
 * mean over the last twenty beats). Emitting a beat never allocates.
 */
class Monitor
{
  public:
    /**
     * @param window_size Beats in the sliding window (must be >= 1).
     * @param target      Declared target heart-rate range.
     */
    Monitor(std::size_t window_size, HeartRateTarget target);

    /**
     * Emit a heartbeat at time @p now (seconds). Timestamps must be
     * non-decreasing (and not NaN).
     * @return The record for this beat (valid until the next beat).
     */
    const HeartbeatRecord &beat(double now);

    /** Total beats emitted. */
    std::size_t count() const { return count_; }

    /** The most recent heartbeat. Throws if no beat was emitted. */
    const HeartbeatRecord &latest() const;

    /**
     * Heart rate over the sliding window, beats/second.
     * Returns 0 before the second beat.
     */
    double windowRate() const;

    /** Heart rate since the first beat, beats/second (0 before 2 beats). */
    double globalRate() const;

    /** Latency statistics over the current window (zeros if empty). */
    WindowStats windowStats() const;

    /** The declared target range. */
    const HeartRateTarget &target() const { return target_; }

    /** Replace the target range (used when re-aiming the controller). */
    void setTarget(HeartRateTarget target);

    /** Sliding-window size in beats. */
    std::size_t windowSize() const { return window_size_; }

  private:
    std::size_t window_size_;
    HeartRateTarget target_;
    std::size_t count_ = 0;
    /** The latest record; its timestamp starts at -inf so the first
     *  beat passes the same ordering check as every later one. */
    HeartbeatRecord latest_{0, -std::numeric_limits<double>::infinity(),
                            0.0, 0.0, 0.0, 0.0};
    double first_timestamp_ = 0.0;
    /** Window latencies, oldest at ring_head_ once the ring is full. */
    std::vector<double> ring_;
    std::size_t ring_head_ = 0;
    std::size_t window_count_ = 0;
    double window_latency_sum_ = 0.0;
};

} // namespace powerdial::hb

#endif // POWERDIAL_HEARTBEATS_HEARTBEAT_H

/**
 * @file
 * Deterministic collection of structured trace events.
 *
 * The TraceSink holds one record vector, filled from the fleet's
 * serial sections only: the fleet plane's decisions (admission,
 * placement, arbitration, leases) through emitFleet, and each job's
 * own stream through append, which the serve calls when it releases
 * the job's tenant. While the tenant runs, its TraceProbe keeps the
 * stream's records privately, so a tenant slice on a fan-out worker
 * touches no shared state. drain() sorts by (time_s, stream, seq) — a
 * total order that never mentions a worker or the commit order, so the
 * drained sequence (and therefore every exporter's byte stream) is
 * identical at any thread count.
 *
 * Cost discipline: every emission site asks wants(category, severity)
 * first — one mask-and-compare — so a category that is off costs one
 * branch per event and builds no record (bench_overhead pins the
 * ceiling).
 */
#ifndef POWERDIAL_OBS_TRACE_SINK_H
#define POWERDIAL_OBS_TRACE_SINK_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/run_observer.h"
#include "obs/trace_event.h"

namespace powerdial::obs {

/** Sink configuration: what is recorded. */
struct TraceConfig
{
    unsigned categories = kCatAll;           //!< Category bitmask.
    Severity min_severity = Severity::Debug; //!< Records below: dropped.
};

/**
 * Parse a comma-separated category list ("control,beat,lifecycle,
 * admission,placement,arbitration", plus the aliases "fleet" =
 * admission|placement|arbitration, "all", and "none"). Returns
 * std::nullopt on an unknown name.
 */
std::optional<unsigned> parseCategories(const std::string &text);

/** Thread-count-deterministic trace event collector. */
class TraceSink
{
  public:
    explicit TraceSink(TraceConfig config = {});

    const TraceConfig &config() const { return config_; }

    /** The one-branch recording test every emission site runs. */
    bool
    wants(unsigned category, Severity severity) const
    {
        return (config_.categories & category) != 0 &&
            severity >= config_.min_severity;
    }

    /**
     * Clear all state — the serve calls this at its top, so one sink
     * attached to several serves in sequence holds the last serve's
     * trace.
     */
    void beginServe();

    /**
     * Record a serial-plane (fleet) event: stream and seq are
     * assigned by the sink (stream 0, one monotone sequence). Only
     * the serve's serial sections may call this.
     */
    void emitFleet(TraceRecord record);

    /**
     * Record one job stream's records, stream and seq already
     * assigned (TraceProbe::flush). Only the serve's serial sections
     * may call this.
     */
    void append(const std::vector<TraceRecord> &records);

    /** Records currently held. */
    std::size_t recorded() const { return records_.size(); }

    /**
     * Take all records, sorted by (time_s, stream, seq). Call from the
     * coordinating thread only, with no tenant slice in flight.
     */
    std::vector<TraceRecord> drain();

  private:
    TraceConfig config_;
    std::vector<TraceRecord> records_;
    std::size_t fleet_seq_ = 0;
};

/**
 * The per-job observer adapter: one TraceProbe per tenant session
 * turns RunObserver callbacks into Control/Beat/Lifecycle records on
 * the job's own stream (job + 1), offset from machine-local to fleet
 * virtual time by the job's admission time. The probe keeps its
 * stream's records until flush() hands them to the sink.
 */
class TraceProbe final : public core::RunObserver
{
  public:
    /** The job identity every record of this stream carries. */
    struct Identity
    {
        std::size_t job = 0;
        std::size_t tenant = kNoIndex;
        std::size_t machine = kNoIndex;
        std::size_t job_class = kNoIndex;
        /** Fleet virtual time at admission: added to machine-local
         *  event times, which start at 0 on a fresh tenant machine. */
        double offset_s = 0.0;
    };

    TraceProbe(TraceSink &sink, const Identity &identity)
        : sink_(&sink), identity_(identity)
    {
    }

    void onRunStart(const core::RunStartEvent &event) override;
    void onQuantum(const core::QuantumEvent &event) override;
    void onBeat(const core::BeatEvent &event) override;
    void onRunEnd(const core::ControlledRun &run) override;

    /**
     * Append the stream's records to the sink (TraceSink::append) and
     * clear them. Call from a serial section: the serve flushes when
     * it releases the job's tenant.
     */
    void flush();

  private:
    TraceRecord base(TraceKind kind, Severity severity,
                     double local_time_s);

    TraceSink *sink_;
    Identity identity_;
    std::vector<TraceRecord> records_;
    std::size_t seq_ = 0;
    double target_rate_ = 0.0;
    double start_time_s_ = 0.0;
};

} // namespace powerdial::obs

#endif // POWERDIAL_OBS_TRACE_SINK_H

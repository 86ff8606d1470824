/**
 * @file
 * Per-job metrics for the fleet serving subsystem.
 *
 * Every tenant session already streams per-beat events through the
 * core::RunObserver seam; a JobProbe, attached to one tenant session,
 * folds them into that job's JobRecord — a private record, so tenants
 * advancing concurrently on core::FanoutEngine workers share no state.
 * The serve takes each finished record at its serial release point and
 * stores it at its job id (FleetReport::jobs[i].job == i), so every
 * aggregate (fleet heart rate, total watts, per-tenant QoS loss,
 * latency percentiles) is bit-identical at any thread count.
 */
#ifndef POWERDIAL_FLEET_METRICS_HUB_H
#define POWERDIAL_FLEET_METRICS_HUB_H

#include <cstddef>
#include <vector>

#include "core/run_observer.h"
#include "sim/machine.h"

namespace powerdial::fleet {

/** Everything one tenant job reported by the time it completed. */
struct JobRecord
{
    std::size_t job = 0;     //!< Fleet-wide arrival order id.
    std::size_t tenant = 0;  //!< Tenant (input stream) the job served.
    std::size_t epoch = 0;   //!< Epoch the job arrived in.
    std::size_t machine = 0; //!< Hosting machine index.
    std::size_t job_class = 0; //!< Priority class (0 = highest).
    double deadline_s = 0.0; //!< Relative deadline (0 = none).
    /** Completion latency the admission policy predicted when it
     *  admitted the job (0 = no prediction was made). */
    double predicted_s = 0.0;
    double latency_s = 0.0;  //!< Virtual seconds to completion.
    double mean_rate = 0.0;  //!< Mean sliding-window heart rate.
    double qos_loss = 0.0;   //!< Work-weighted calibrated QoS loss.
    double energy_j = 0.0;   //!< Energy of the job's machine share.
    std::size_t beats = 0;   //!< Heartbeats the job emitted.
    // Latency breakdown (see core::ControlledRun): where latency_s
    // went — service_s + queue_share_s + class_deficit_s + pause_s
    // ~= latency_s up to FP rounding.
    double service_s = 0.0;       //!< Nominal-speed, full-share work.
    double queue_share_s = 0.0;   //!< Waiting on co-tenants.
    double class_deficit_s = 0.0; //!< Running below nominal speed.
    double pause_s = 0.0;         //!< Explicit idling (gates, slack).
    /**
     * Arbitration-lease generation the job last observed (0 = it
     * never saw a lease) and how many distinct lease terms its beat
     * gate applied over its lifetime — a cross-epoch tenant that felt
     * three arbitration decisions reports lease_updates == 3.
     */
    std::size_t lease_generation = 0;
    std::size_t lease_updates = 0;
};

/**
 * The per-job observer: attach one probe to one tenant session, then
 * finish() it after the run to take the job's record.
 */
class JobProbe final : public core::RunObserver
{
  public:
    JobProbe() = default;

    /** A probe for the job whose identity (job, tenant, epoch,
     *  machine) and offered metadata @p seed carries. */
    explicit JobProbe(const JobRecord &seed) : record_(seed) {}

    void onRunStart(const core::RunStartEvent &event) override;
    void onBeat(const core::BeatEvent &event) override;
    void onRunEnd(const core::ControlledRun &run) override;

    /**
     * The finished job's record, folding in what only the caller can
     * see: the energy of the machine the job ran on. Call exactly
     * once, after the session's run completed; throws
     * std::logic_error before that.
     */
    JobRecord finish(const sim::Machine &machine);

    /**
     * Tag the record with the arbitration-lease terms the tenant's
     * gate just applied (called once per lease re-read).
     */
    void noteLease(std::size_t generation)
    {
        record_.lease_generation = generation;
        ++record_.lease_updates;
    }

    /** The record as accumulated so far (complete after the run). */
    const JobRecord &record() const { return record_; }

  private:
    JobRecord record_;
    double rate_sum_ = 0.0;
    bool done_ = false;
};

/**
 * Nearest-rank percentile of @p sorted (ascending) values; p in
 * [0, 100]. Returns 0 for an empty vector.
 */
double percentileOf(const std::vector<double> &sorted, double p);

/** The standard latency summary every report row carries. */
struct LatencyPercentiles
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Sort @p values in place and take the p50/p95/p99 nearest-rank
 * percentiles — the one aggregation the per-machine, per-tenant, and
 * per-class report paths all share, kept here so their tails can
 * never drift apart numerically.
 */
LatencyPercentiles latencyPercentiles(std::vector<double> &values);

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_METRICS_HUB_H

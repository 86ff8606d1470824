/**
 * @file
 * Per-job records for the fleet serving subsystem.
 *
 * A JobRecord is plain data. The serve seeds it with the job's
 * identity when it assigns the job to a tenant; the tenant's lease
 * gate tags it with each lease it applies; and the tenant's slices
 * copy in the run's outcome from the core::ControlledRun that
 * core::Session::advanceUntil returns. The record lives in the tenant,
 * so tenants advancing concurrently on core::FanoutEngine workers
 * share no state. The serve stores each finished record at its job id
 * (FleetReport::jobs[i].job == i) at its serial release point, so
 * every aggregate (fleet heart rate, total watts, per-tenant QoS loss,
 * latency percentiles) is bit-identical at any thread count.
 */
#ifndef POWERDIAL_FLEET_METRICS_HUB_H
#define POWERDIAL_FLEET_METRICS_HUB_H

#include <cstddef>
#include <vector>

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
    double qos_loss = 0.0;   //!< Work-weighted calibrated QoS loss.
    /** Full-system energy of the job's simulated host over the job's
     *  lifetime, joules: the idle floor plus the dynamic draw at the
     *  lease's host utilisation. Not a share of the host: each
     *  co-tenant's record carries the whole host draw. */
    double energy_j = 0.0;
    std::size_t beats = 0;   //!< Heartbeats the job emitted so far.
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
 * The p50/p95/p99 nearest-rank percentiles of the values in
 * [@p first, @p last) — exactly percentileOf over the sorted values —
 * the one aggregation the per-machine, per-tenant, and per-class
 * report paths all share, kept here so their tails can never drift
 * apart numerically. Selects the three order statistics in place
 * without a full sort, so it leaves the range permuted but not
 * necessarily sorted.
 */
LatencyPercentiles latencyPercentiles(double *first, double *last);

/** latencyPercentiles over all of @p values. */
inline LatencyPercentiles
latencyPercentiles(std::vector<double> &values)
{
    return latencyPercentiles(values.data(),
                              values.data() + values.size());
}

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_METRICS_HUB_H

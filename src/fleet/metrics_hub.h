/**
 * @file
 * Aggregated metrics pipeline for the fleet serving subsystem.
 *
 * Every tenant session already streams per-beat events through the
 * core::RunObserver seam; the MetricsHub collects them once, for the
 * whole fleet, instead of each bench or example rolling its own
 * recorder. Each tenant's core::Session is observed by a Probe, the
 * hub's per-tenant core::RunObserver adapter. Tenants run concurrently on
 * core::FanoutEngine workers, so the hub keeps one shard per worker: a
 * probe accumulates its tenant's beats locally and commits one
 * finished JobRecord into its worker's shard — each shard is written
 * by exactly one worker, so the fan-in is lock-free.
 * drain() merges the shards sorted by job id, which makes every
 * aggregate (fleet heart rate, total watts, per-tenant QoS loss,
 * latency percentiles) bit-identical at any thread count.
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
 * Lock-free fan-in of tenant-session events into per-worker shards.
 */
class MetricsHub
{
  public:
    /**
     * The per-tenant observer adapter: attach one probe to one tenant
     * session, then finish() it after the run to commit the job's
     * record into the probe's worker shard.
     */
    class Probe final : public core::RunObserver
    {
      public:
        void onRunStart(const core::RunStartEvent &event) override;
        void onBeat(const core::BeatEvent &event) override;
        void onRunEnd(const core::ControlledRun &run) override;

        /**
         * Commit the finished job to the hub, folding in what only
         * the caller can see: the machine the job ran on (for energy)
         * and the run's QoS estimate. Call exactly once, after the
         * session's run completed.
         */
        void finish(const sim::Machine &machine);

        /**
         * Like finish(), but commit into @p worker's shard instead of
         * the probe's minting worker. A persistent tenant's epoch
         * slices may run on a different pool worker each epoch; the
         * slice that completes the run commits into the shard of the
         * worker actually running it, keeping the fan-in lock-free.
         */
        void finishOn(std::size_t worker, const sim::Machine &machine);

        /**
         * Tag the record with the arbitration-lease terms the tenant's
         * gate just applied (called once per lease re-read).
         */
        void noteLease(std::size_t generation)
        {
            record_.lease_generation = generation;
            ++record_.lease_updates;
        }

        /** The record as accumulated so far (complete after finish). */
        const JobRecord &record() const { return record_; }

      private:
        friend class MetricsHub;
        Probe(MetricsHub &hub, std::size_t worker, JobRecord seed)
            : hub_(&hub), worker_(worker), record_(seed)
        {
        }

        MetricsHub *hub_;
        std::size_t worker_;
        JobRecord record_;
        double rate_sum_ = 0.0;
        bool done_ = false;
    };

    /** @param workers Shard count; one per pool worker (>= 1). */
    explicit MetricsHub(std::size_t workers);

    /**
     * Mint the probe for one tenant job about to run on @p worker.
     * Identity fields (job, tenant, epoch, machine) are carried in
     * @p seed.
     */
    Probe probe(std::size_t worker, const JobRecord &seed);

    /** Records committed so far (across all shards). */
    std::size_t committed() const;

    /**
     * Merge and clear all shards, returning the records sorted by job
     * id — a deterministic order regardless of which workers ran
     * which tenants. Call from the coordinating thread only, with no
     * tenant in flight.
     */
    std::vector<JobRecord> drain();

  private:
    void commit(std::size_t worker, const JobRecord &record);

    std::vector<std::vector<JobRecord>> shards_;
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

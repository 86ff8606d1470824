/**
 * @file
 * Job placement and admission for the fleet serving subsystem.
 *
 * The analytic sim::Cluster::balance() answers "how would a
 * proportional balancer spread a steady load"; a serving fleet instead
 * places jobs one at a time as they arrive and releases them as they
 * complete. The Scheduler does that incremental placement against the
 * cluster's dynamic occupancy state, with two policy seams so the
 * pieces are independently interchangeable (like the control-loop
 * seams of core::Session):
 *
 *   - PlacementPolicy: *where* an admitted job runs (least-loaded or
 *     power-aware, or anything pluggable);
 *   - AdmissionPolicy (fleet/admission.h): *whether* an arriving job
 *     runs at all — blind queue-depth shedding, or SLO-aware
 *     prediction against the job's deadline class.
 */
#ifndef POWERDIAL_FLEET_SCHEDULER_H
#define POWERDIAL_FLEET_SCHEDULER_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/admission.h"
#include "fleet/power_arbiter.h"
#include "sim/cluster.h"

namespace powerdial::core {
class ResponseModel;
}

namespace powerdial::fleet {

/**
 * Chooses the machine for the next arriving job. Implementations must
 * be deterministic pure functions of the cluster's observable state;
 * ties break toward the lowest machine index so placements replay
 * identically run to run.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Policy name for reports, e.g. "least-loaded". */
    virtual std::string name() const = 0;

    /** The machine index the next job should be placed on. */
    virtual std::size_t pick(const sim::Cluster &cluster) const = 0;

    /**
     * The policy's preference restricted to @p candidates (non-empty,
     * ascending machine indices) — asked when the unrestricted pick is
     * at the queue-depth bound but other machines still have room, so
     * overflow keeps following the policy's own criterion instead of
     * silently reverting to least-loaded. The default implementation
     * is least-loaded-among-candidates (lowest index on ties), the
     * historical overflow rule; built-in policies with another cost
     * function (power-aware) override it.
     */
    virtual std::size_t
    pickAmong(const sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const;

    /**
     * Hand the policy the scheduler's calibrated response model (may
     * be null). Called once at scheduler construction, before any
     * pick. Most policies ignore it; the affinity-aware policy uses
     * its speedup range to price a candidate machine's class tables.
     */
    virtual void bindModel(const core::ResponseModel *model)
    {
        (void)model;
    }

    /**
     * The policy's per-machine cost vector for the next placement —
     * the quantity pick() minimizes, one entry per cluster machine —
     * for decision-attribution tracing. Policies with no numeric cost
     * (the default) return an empty vector and the tracer emits no
     * placement records for them.
     */
    virtual std::vector<double>
    candidateCosts(const sim::Cluster &cluster) const
    {
        (void)cluster;
        return {};
    }
};

/** Mint a fresh placement policy per scheduler. */
using PlacementFactory =
    std::function<std::unique_ptr<PlacementPolicy>()>;

/**
 * Fewest active instances wins (lowest index on ties) — the
 * incremental form of the proportional balancer the paper's section
 * 5.5 provisioning model assumes.
 */
PlacementFactory makeLeastLoadedPlacement();

/**
 * Smallest increase in cluster power wins: the candidate machine is
 * the one whose steady-state draw (at its own, possibly arbiter-
 * capped, frequency) grows least when it hosts one more instance.
 * Prefers filling slow (capped) and already-busy machines whose
 * marginal watt cost is low, trading per-job speed for fleet power.
 */
PlacementFactory makePowerAwarePlacement();

/**
 * Class-aware placement for heterogeneous fleets: each candidate is
 * priced by the slowdown a job would see there — occupancy (inverse
 * per-instance share against the candidate's own core count) times the
 * class speed deficit (fleet reference effective Hz over the machine's
 * current effective Hz), discounted by the bound knob catch-up the
 * scheduler's calibrated model can deliver. Smallest predicted cost
 * wins; ties break to fewer active instances, then the lowest index —
 * so on a homogeneous fleet the ranking degenerates to exactly
 * least-loaded (every machine prices identically at equal load).
 */
PlacementFactory makeAffinityAwarePlacement();

/** Admission-control parameters. */
struct SchedulerOptions
{
    /** Placement policy; null means least-loaded. */
    PlacementFactory placement;
    /**
     * Bounded per-machine run-queue depth: the most active instances
     * one machine may host (running plus queued behind its cores).
     * Arrivals that find every machine at the bound are shed, not
     * queued without limit. 0 (the default) keeps the historical
     * unbounded behaviour.
     */
    std::size_t queue_depth = 0;
    /** Admission policy; null means blind queue-depth shedding. */
    AdmissionFactory admission;
    /**
     * Calibrated response model handed to the admission policy for
     * completion-time prediction; may be null (QueueDepthAdmission
     * never reads it). Must outlive the scheduler when set.
     */
    const core::ResponseModel *model = nullptr;
};

/** One admitted job: its host and the policy's latency prediction. */
struct Admission
{
    std::size_t machine = 0;
    double predicted_s = 0.0; //!< 0 = the policy made no prediction.
};

/**
 * Incremental job admission and placement against one cluster's
 * dynamic state. The cluster must outlive the scheduler.
 */
class Scheduler
{
  public:
    Scheduler(sim::Cluster &cluster, SchedulerOptions options);

    /**
     * Offer one arriving job to the admission policy; returns the
     * admission (host plus prediction) or std::nullopt when the policy
     * shed the job (the shed counters increment, attributed to the
     * placement pick and the job's priority class).
     *
     * @throws std::invalid_argument for a job workload::badJobTerms
     *         rejects, before the policy sees it or any counter moves.
     */
    std::optional<Admission> tryAdmit(const OfferedJob &job);

    /** Record completion of a job hosted on machine @p machine. */
    void release(std::size_t machine);

    /**
     * Feed one arbitration round to the admission policy and retain
     * the decision as lease context for subsequent tryAdmit calls.
     * Call serially, in virtual-time order.
     */
    void noteArbitration(const ArbitrationDecision &decision);

    /**
     * Feed one completed job's observed-vs-predicted latency to the
     * admission policy's margin feedback. Call serially, in
     * virtual-time order.
     */
    void noteCompletion(double observed_s, double predicted_s);

    /** Jobs shed by admission control so far. */
    std::size_t shedCount() const { return shed_; }

    /**
     * Per-machine shed attribution: each shed job is charged to the
     * machine the placement policy picked for it (the host it would
     * have run on had there been room). The counts sum to shedCount(),
     * so overload reports can say *where* demand was turned away, not
     * just how much.
     */
    const std::vector<std::size_t> &shedByMachine() const
    {
        return shed_by_machine_;
    }

    /**
     * Per-priority-class shed counts, indexed by OfferedJob::job_class
     * (grown on demand; sums to shedCount()). Class 0 is the highest
     * priority, so a healthy SLO-aware fleet sheds from the tail of
     * this vector first.
     */
    const std::vector<std::size_t> &shedByClass() const
    {
        return shed_by_class_;
    }

    /** The placement policy in use. */
    const PlacementPolicy &policy() const { return *policy_; }

    /**
     * The full verdict behind the most recent tryAdmit(job) —
     * pricing (prediction, margin, class factor) and, for sheds, the
     * attributed cause. For decision tracing; valid until the next
     * tryAdmit call on this scheduler.
     */
    const AdmissionVerdict &lastVerdict() const { return last_verdict_; }

    /** The admission policy in use. */
    const AdmissionPolicy &admissionPolicy() const { return *admission_; }

    /** The queue-depth bound (0 = unbounded). */
    std::size_t queueDepth() const { return options_.queue_depth; }

    const sim::Cluster &cluster() const { return *cluster_; }

  private:
    sim::Cluster *cluster_;
    SchedulerOptions options_;
    std::unique_ptr<PlacementPolicy> policy_;
    std::unique_ptr<AdmissionPolicy> admission_;
    ArbitrationDecision last_decision_;
    bool have_decision_ = false;
    AdmissionVerdict last_verdict_;
    std::size_t shed_ = 0;
    std::vector<std::size_t> shed_by_machine_;
    std::vector<std::size_t> shed_by_class_;
};

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_SCHEDULER_H

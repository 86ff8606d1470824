/**
 * @file
 * Admission control for the fleet serving subsystem.
 *
 * The Scheduler's queue-depth bound (PR 5) sheds *blindly*: any arrival
 * that finds every machine at the bound is turned away, whether it is a
 * best-effort batch job or the fleet's highest-priority traffic, and
 * whether or not it could still have met its deadline from a queue.
 * This seam makes the shed decision a policy, parallel to the
 * PlacementPolicy seam:
 *
 *   - QueueDepthAdmission reproduces the historical behaviour exactly
 *     (shed only when no machine has room), keeping every existing
 *     golden and bit-identity test valid;
 *   - PredictiveAdmission uses the tenant's *calibrated response
 *     model* plus the live cluster occupancy and arbitration-lease
 *     state to estimate each arrival's completion time, and sheds only
 *     jobs whose predicted finish would violate their deadline class —
 *     with a MARCO-style feedback hook that adapts the shedding margin
 *     from the observed p95 of actual-vs-predicted latency, and
 *     class-scaled headroom so low-priority work is shed first under
 *     overload.
 *
 * Implementations must be deterministic pure functions of the context
 * plus their own serially-fed feedback (noteArbitration /
 * noteCompletion are only called from the engines' serial sections),
 * preserving the repo's bit-identical-replay discipline.
 */
#ifndef POWERDIAL_FLEET_ADMISSION_H
#define POWERDIAL_FLEET_ADMISSION_H

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workload/traffic_mix.h"

namespace powerdial::core {
class ResponseModel;
}
namespace powerdial::sim {
class Cluster;
}

namespace powerdial::fleet {

class PlacementPolicy;
struct ArbitrationDecision;

using workload::OfferedJob;

/**
 * Sentinel OfferedJob::tenant: resolve the tenant input by the legacy
 * round-robin rule (options.tenants[job_id % size]) at tenant-creation
 * time. The count-based Server::serve(arrivals) path offers every job
 * with this sentinel, because the legacy rule depends on the *admitted*
 * job id, which is unknowable before admission decides.
 */
inline constexpr std::size_t kRoundRobinTenant =
    static_cast<std::size_t>(-1);

/**
 * What an admission policy may read when deciding: the live cluster
 * occupancy, the placement policy (admission *places* admitted jobs
 * through it, so placement stays one seam), the queue-depth bound, the
 * calibrated response model, and the latest arbitration decision
 * (per-machine DVFS caps and duty-cycle pauses — the lease terms a
 * newly admitted tenant would run under).
 */
struct AdmissionContext
{
    const sim::Cluster &cluster;
    const PlacementPolicy &placement;
    std::size_t queue_depth = 0; //!< 0 = unbounded.
    const core::ResponseModel *model = nullptr; //!< May be null.
    const ArbitrationDecision *decision = nullptr; //!< Null = none yet.
};

/** One admission decision. */
struct AdmissionVerdict
{
    /**
     * The host the placement policy chose for the job — the machine a
     * shed is charged to (Scheduler::shedByMachine), whether or not
     * the job was admitted.
     */
    std::size_t policy_pick = 0;
    /** Hosting machine; empty = shed. */
    std::optional<std::size_t> machine;
    /** Predicted completion latency, seconds (0 = no prediction). */
    double predicted_s = 0.0;
    /** Margin multiplier in force at the decision (0 = none used). */
    double margin = 0.0;
    /** Class headroom factor 1 + class_headroom * class (0 = unused). */
    double class_factor = 0.0;
    /** Why a shed was shed: "capacity" (cluster full) or "slo"
     *  (predicted deadline violation); null on admits. Static
     *  storage — safe to copy into trace records. */
    const char *shed_cause = nullptr;
};

/**
 * Decides, for each arriving job, whether to admit it (and onto which
 * machine) or shed it. The Scheduler routes every tryAdmit through
 * exactly one policy instance per serve.
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /** Policy name for reports, e.g. "queue-depth". */
    virtual std::string name() const = 0;

    /** Decide one arrival. Must not mutate the cluster. */
    virtual AdmissionVerdict decide(const OfferedJob &job,
                                    const AdmissionContext &context) = 0;

    /**
     * An arbitration round just installed @p decision on the cluster.
     * Called serially, in virtual-time order, by both engines.
     */
    virtual void noteArbitration(const ArbitrationDecision &decision)
    {
        (void)decision;
    }

    /**
     * A job the policy admitted just completed: @p observed_s actual
     * latency against the @p predicted_s the policy returned at
     * admission (0 = it made no prediction). The feedback hook behind
     * PredictiveAdmission's adaptive margin, which ignores
     * non-finite inputs; called serially at release points, in
     * virtual-time order, by both engines.
     */
    virtual void noteCompletion(double observed_s, double predicted_s)
    {
        (void)observed_s;
        (void)predicted_s;
    }
};

/** Mint a fresh admission policy per scheduler. */
using AdmissionFactory =
    std::function<std::unique_ptr<AdmissionPolicy>()>;

/**
 * The historical blind shedding, behind the seam: admit onto the
 * placement policy's pick, overflowing to the policy's preference
 * among machines with room when the pick is at the queue-depth bound;
 * shed only when every machine is at the bound. Job metadata (class,
 * deadline) is ignored. This is the Scheduler's default policy, and
 * the one every pre-seam golden was recorded under.
 */
AdmissionFactory makeQueueDepthAdmission();

/**
 * PredictiveAdmission tuning. Constructing the policy throws
 * std::invalid_argument for a zero window, a non-finite or
 * non-positive margin, min_margin > max_margin, or a non-finite or
 * negative class_headroom.
 */
struct PredictiveAdmissionOptions
{
    /**
     * Multiplier on the predicted latency before the deadline test,
     * used until completion feedback accumulates. The margin then
     * adapts: it becomes the ratio of the feedback window's observed
     * p95 latency to its predicted p95 latency, so a model that
     * proves optimistic in this fleet raises the bar and one that
     * proves pessimistic lowers it (MARCO-style threshold
     * adaptation). Distribution-level on purpose: the p95 of per-job
     * ratios would ratchet up on burst-leading jobs (priced before
     * the burst, run through it) and then starve admission.
     */
    double initial_margin = 1.0;
    /** Sliding feedback window, completions (>= 1). */
    std::size_t window = 64;
    /** Bounds on the adapted margin. */
    double min_margin = 0.5;
    double max_margin = 4.0;
    /**
     * Extra per-class margin: class c is shed when predicted * margin
     * * (1 + class_headroom * c) exceeds its deadline, so lower-
     * priority classes (higher c) are turned away first as predicted
     * load approaches deadlines.
     */
    double class_headroom = 0.25;
};

/**
 * SLO-aware admission: estimate the arrival's completion time on the
 * placement policy's pick from the calibrated response model, the
 * post-placement core share, the machine's (possibly arbiter-capped)
 * frequency, and the lease's duty-cycle pause; admit unless the
 * margin-scaled prediction violates the job's deadline (deadline 0 =
 * no SLO, admit whenever there is room). Capacity sheds (no machine
 * with room) still occur exactly as under QueueDepthAdmission.
 */
AdmissionFactory
makePredictiveAdmission(PredictiveAdmissionOptions options = {});

namespace detail {

/**
 * One feedback-window step of PredictiveAdmission's sorted windows:
 * replace the first element equal to @p old in ascending @p sorted (it
 * must hold one: the ring slot being overwritten) with @p value,
 * keeping it sorted. Leaves exactly what erasing that element and then
 * inserting @p value after its equals leaves, bit for bit, in one
 * shift of the elements between the two positions. Declared here for
 * its tests.
 */
void replaceSorted(std::vector<double> &sorted, double old, double value);

} // namespace detail

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_ADMISSION_H

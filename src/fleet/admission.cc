#include "fleet/admission.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/response_model.h"
#include "fleet/metrics_hub.h"
#include "fleet/scheduler.h"
#include "sim/cluster.h"

namespace powerdial::fleet {

namespace {

/**
 * The capacity decision both policies share: the placement policy's
 * pick, overflowed through PlacementPolicy::pickAmong to the policy's
 * preference among machines with room when the pick is at the
 * queue-depth bound. An empty machine means every machine is at the
 * bound — a capacity shed.
 */
AdmissionVerdict
pickWithRoom(const AdmissionContext &context)
{
    AdmissionVerdict verdict;
    verdict.policy_pick = context.placement.pick(context.cluster);
    if (verdict.policy_pick >= context.cluster.size())
        throw std::logic_error("Scheduler: policy picked a bad machine");
    std::size_t machine = verdict.policy_pick;
    const std::size_t depth = context.queue_depth;
    if (depth != 0 && context.cluster.activeOn(machine) >= depth) {
        // The occupancy index answers "is any machine below the
        // bound?" without the scan: the room list is empty exactly
        // when the least-loaded machine is at the bound.
        if (context.cluster.minActive() >= depth) {
            verdict.shed_cause = "capacity";
            return verdict; // Cluster full: shed.
        }
        const std::vector<std::size_t> &active =
            context.cluster.activeCounts();
        std::vector<std::size_t> room;
        for (std::size_t i = 0; i < active.size(); ++i)
            if (active[i] < depth)
                room.push_back(i);
        machine = context.placement.pickAmong(context.cluster, room);
    }
    verdict.machine = machine;
    return verdict;
}

class QueueDepthAdmission final : public AdmissionPolicy
{
  public:
    std::string name() const override { return "queue-depth"; }

    AdmissionVerdict
    decide(const OfferedJob &job,
           const AdmissionContext &context) override
    {
        (void)job; // Blind: metadata never considered.
        return pickWithRoom(context);
    }
};

class PredictiveAdmission final : public AdmissionPolicy
{
  public:
    explicit PredictiveAdmission(PredictiveAdmissionOptions options)
        : options_(options), margin_(options.initial_margin)
    {
        // Written so that NaN, which fails every ordered comparison,
        // fails each check too.
        if (options_.window == 0)
            throw std::invalid_argument(
                "PredictiveAdmission: window must be >= 1");
        for (const double margin :
             {options_.initial_margin, options_.min_margin,
              options_.max_margin})
            if (!(std::isfinite(margin) && margin > 0.0))
                throw std::invalid_argument(
                    "PredictiveAdmission: margins must be finite and "
                    "> 0");
        if (options_.min_margin > options_.max_margin)
            throw std::invalid_argument(
                "PredictiveAdmission: min_margin exceeds max_margin");
        if (!(std::isfinite(options_.class_headroom) &&
              options_.class_headroom >= 0.0))
            throw std::invalid_argument(
                "PredictiveAdmission: class_headroom must be finite "
                "and >= 0");
        observed_.reserve(options_.window);
        predicted_.reserve(options_.window);
        sorted_observed_.reserve(options_.window);
        sorted_predicted_.reserve(options_.window);
    }

    std::string name() const override { return "predictive-slo"; }

    AdmissionVerdict
    decide(const OfferedJob &job,
           const AdmissionContext &context) override
    {
        AdmissionVerdict verdict = pickWithRoom(context);
        if (!verdict.machine.has_value())
            return verdict; // Capacity shed, like queue-depth.
        verdict.predicted_s =
            predictLatency(context, *verdict.machine);
        verdict.margin = margin_;
        if (job.deadline_s > 0.0 && verdict.predicted_s > 0.0) {
            const double headroom = 1.0 +
                options_.class_headroom *
                    static_cast<double>(job.job_class);
            verdict.class_factor = headroom;
            if (verdict.predicted_s * margin_ * headroom >
                job.deadline_s) {
                verdict.machine.reset(); // Predicted SLO violation.
                verdict.shed_cause = "slo";
            }
        }
        return verdict;
    }

    void
    noteCompletion(double observed_s, double predicted_s) override
    {
        // Non-finite inputs are ignored: a NaN would break the sorted
        // windows' order (the engines never produce one).
        if (!(std::isfinite(observed_s) && std::isfinite(predicted_s)) ||
            predicted_s <= 0.0 || observed_s < 0.0)
            return;
        if (observed_.size() < options_.window) {
            observed_.push_back(observed_s);
            predicted_.push_back(predicted_s);
            insertSorted(sorted_observed_, observed_s);
            insertSorted(sorted_predicted_, predicted_s);
        } else {
            detail::replaceSorted(sorted_observed_, observed_[next_],
                                  observed_s);
            detail::replaceSorted(sorted_predicted_, predicted_[next_],
                                  predicted_s);
            observed_[next_] = observed_s;
            predicted_[next_] = predicted_s;
        }
        if (++next_ == options_.window)
            next_ = 0;
        // Distribution-level calibration: the ratio of the window's
        // observed p95 to its predicted p95, not the p95 of per-job
        // ratios. Jobs admitted early in an arrival burst are priced
        // at pre-burst occupancy but live through the burst, so their
        // individual ratios are systematically inflated; a tail-of-
        // ratios margin ratchets up on them, then starves admission so
        // the window never refreshes. Comparing the two tails instead
        // measures how far the *distribution* of outcomes sits from
        // the distribution of promises, which is the miscalibration
        // the margin is meant to correct. The sorted windows hold the
        // same multisets as the rings, so both p95s are index reads.
        const double predicted_p95 =
            percentileOf(sorted_predicted_, 95.0);
        if (predicted_p95 <= 0.0)
            return;
        margin_ = std::clamp(percentileOf(sorted_observed_, 95.0) /
                                 predicted_p95,
                             options_.min_margin, options_.max_margin);
    }

  private:
    /** Insert @p value into ascending @p sorted, keeping it sorted. */
    static void
    insertSorted(std::vector<double> &sorted, double value)
    {
        sorted.insert(
            std::upper_bound(sorted.begin(), sorted.end(), value),
            value);
    }

    /**
     * Predicted completion latency of one more job on @p machine: the
     * calibrated baseline stretched by the slowdown the job would run
     * under — core share after placement (against the machine's own
     * class core count), the machine's effective-speed deficit versus
     * the fleet's reference class (which folds in both the DVFS cap
     * and a sub-1.0 class speed factor), and the lease's duty-cycle
     * pause — minus whatever the controller can win back by trading
     * QoS (capped by the response model's largest Pareto speedup). On
     * a homogeneous fleet the reference speed is the machine's own
     * P-state-0 frequency times 1.0, so this prices exactly as it did
     * before machine classes existed, bit for bit.
     */
    double
    predictLatency(const AdmissionContext &context,
                   std::size_t machine) const
    {
        if (context.model == nullptr)
            return 0.0;
        const sim::Machine &m = context.cluster.machine(machine);
        const auto load = context.cluster.loadOf(
            machine, context.cluster.activeOn(machine) + 1);
        double pause = 0.0;
        if (context.decision != nullptr &&
            machine < context.decision->pause_ratio.size())
            pause = context.decision->pause_ratio[machine];
        const double slowdown = (1.0 / load.per_instance_share) *
            (context.cluster.referenceEffectiveHz() /
             (m.frequencyHz() * m.speedFactor())) *
            (1.0 + pause);
        const double catchup = std::min(
            slowdown, std::max(context.model->maxSpeedup(), 1.0));
        return context.model->baselineSeconds() * slowdown / catchup;
    }

    PredictiveAdmissionOptions options_;
    double margin_;
    // The feedback window twice over: rings in completion order (to
    // know what to evict) and the same values ascending (to read the
    // p95s), each reserved to options_.window up front.
    std::vector<double> observed_;
    std::vector<double> predicted_;
    std::vector<double> sorted_observed_;
    std::vector<double> sorted_predicted_;
    std::size_t next_ = 0;
};

} // namespace

namespace detail {

void
replaceSorted(std::vector<double> &sorted, double old, double value)
{
    const auto first = sorted.begin();
    const auto gone = std::lower_bound(first, sorted.end(), old);
    if (old <= value) {
        // value lands after its equals among the elements past the
        // removed one, which move down one slot to make room.
        const auto end = std::upper_bound(gone + 1, sorted.end(), value);
        std::move(gone + 1, end, gone);
        *(end - 1) = value;
    } else {
        // value lands after its equals among the elements before the
        // removed one, which move up one slot.
        const auto slot = std::upper_bound(first, gone, value);
        std::move_backward(slot, gone, gone + 1);
        *slot = value;
    }
}

} // namespace detail

AdmissionFactory
makeQueueDepthAdmission()
{
    return []() { return std::make_unique<QueueDepthAdmission>(); };
}

AdmissionFactory
makePredictiveAdmission(PredictiveAdmissionOptions options)
{
    return [options]() {
        return std::make_unique<PredictiveAdmission>(options);
    };
}

} // namespace powerdial::fleet

#include "fleet/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/response_model.h"
#include "workload/traffic_mix.h"

namespace powerdial::fleet {

namespace {

class LeastLoadedPolicy final : public PlacementPolicy
{
  public:
    std::string name() const override { return "least-loaded"; }

    /** The cluster's occupancy index already tracks the lowest-index
     *  least-loaded machine. */
    std::size_t
    pick(const sim::Cluster &cluster) const override
    {
        return cluster.leastLoaded();
    }

    // The base-class pickAmong is already least-loaded-among.

    std::vector<double>
    candidateCosts(const sim::Cluster &cluster) const override
    {
        std::vector<double> costs(cluster.size(), 0.0);
        for (std::size_t i = 0; i < cluster.size(); ++i)
            costs[i] = static_cast<double>(cluster.activeOn(i));
        return costs;
    }
};

class PowerAwarePolicy final : public PlacementPolicy
{
  public:
    std::string name() const override { return "power-aware"; }

    std::size_t
    pick(const sim::Cluster &cluster) const override
    {
        std::size_t best = 0;
        double best_cost = marginalWatts(cluster, 0);
        for (std::size_t i = 1; i < cluster.size(); ++i) {
            const double cost = marginalWatts(cluster, i);
            if (cost < best_cost) {
                best = i;
                best_cost = cost;
            }
        }
        return best;
    }

    std::size_t
    pickAmong(const sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const override
    {
        std::size_t best = candidates.front();
        double best_cost = marginalWatts(cluster, best);
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const double cost = marginalWatts(cluster, candidates[i]);
            if (cost < best_cost) {
                best = candidates[i];
                best_cost = cost;
            }
        }
        return best;
    }

    std::vector<double>
    candidateCosts(const sim::Cluster &cluster) const override
    {
        std::vector<double> costs(cluster.size(), 0.0);
        for (std::size_t i = 0; i < cluster.size(); ++i)
            costs[i] = marginalWatts(cluster, i);
        return costs;
    }

  private:
    /** Power increase from hosting one more instance on machine @p i. */
    static double
    marginalWatts(const sim::Cluster &cluster, std::size_t i)
    {
        const sim::Machine &m = cluster.machine(i);
        const std::size_t active = cluster.activeOn(i);
        const double before = m.wattsAt(
            m.pstate(), cluster.loadOf(i, active).utilization);
        const double after = m.wattsAt(
            m.pstate(), cluster.loadOf(i, active + 1).utilization);
        return after - before;
    }
};

class AffinityAwarePolicy final : public PlacementPolicy
{
  public:
    std::string name() const override { return "affinity-aware"; }

    void bindModel(const core::ResponseModel *model) override
    {
        model_ = model;
    }

    std::size_t
    pick(const sim::Cluster &cluster) const override
    {
        std::size_t best = 0;
        double best_cost = predictedCost(cluster, 0);
        for (std::size_t i = 1; i < cluster.size(); ++i) {
            const double cost = predictedCost(cluster, i);
            if (better(cluster, i, cost, best, best_cost)) {
                best = i;
                best_cost = cost;
            }
        }
        return best;
    }

    std::size_t
    pickAmong(const sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const override
    {
        std::size_t best = candidates.front();
        double best_cost = predictedCost(cluster, best);
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const std::size_t c = candidates[i];
            const double cost = predictedCost(cluster, c);
            if (better(cluster, c, cost, best, best_cost)) {
                best = c;
                best_cost = cost;
            }
        }
        return best;
    }

    std::vector<double>
    candidateCosts(const sim::Cluster &cluster) const override
    {
        std::vector<double> costs(cluster.size(), 0.0);
        for (std::size_t i = 0; i < cluster.size(); ++i)
            costs[i] = predictedCost(cluster, i);
        return costs;
    }

  private:
    /**
     * Relative completion-cost of hosting the next job on machine
     * @p i: occupancy slowdown (the inverse per-instance share it
     * would get there, against that machine's own core count) times
     * the class speed deficit (fleet reference effective Hz over the
     * machine's current effective Hz, which folds in both a slower
     * clock or arbiter cap and a sub-1.0 speed factor), discounted by
     * the knob catch-up the calibrated model could actuate. On a
     * homogeneous uncapped fleet every machine at equal load prices
     * identically, so the tie-breaks below carry the whole decision.
     */
    double
    predictedCost(const sim::Cluster &cluster, std::size_t i) const
    {
        const sim::Machine &m = cluster.machine(i);
        const auto load = cluster.loadOf(i, cluster.activeOn(i) + 1);
        const double slowdown = (1.0 / load.per_instance_share) *
            (cluster.referenceEffectiveHz() /
             (m.frequencyHz() * m.speedFactor()));
        const double catchup = model_ == nullptr
            ? 1.0
            : std::min(slowdown, std::max(model_->maxSpeedup(), 1.0));
        return slowdown / catchup;
    }

    /** Lexicographic (cost, active instances, index) comparison — the
     *  last two make the homogeneous ranking exactly least-loaded. */
    static bool
    better(const sim::Cluster &cluster, std::size_t i, double cost,
           std::size_t best, double best_cost)
    {
        if (cost != best_cost)
            return cost < best_cost;
        return cluster.activeOn(i) < cluster.activeOn(best);
    }

    const core::ResponseModel *model_ = nullptr;
};

} // namespace

std::size_t
PlacementPolicy::pickAmong(const sim::Cluster &cluster,
                           const std::vector<std::size_t> &candidates)
    const
{
    std::size_t best = candidates.front();
    for (std::size_t i = 1; i < candidates.size(); ++i)
        if (cluster.activeOn(candidates[i]) < cluster.activeOn(best))
            best = candidates[i];
    return best;
}

PlacementFactory
makeLeastLoadedPlacement()
{
    return []() { return std::make_unique<LeastLoadedPolicy>(); };
}

PlacementFactory
makePowerAwarePlacement()
{
    return []() { return std::make_unique<PowerAwarePolicy>(); };
}

PlacementFactory
makeAffinityAwarePlacement()
{
    return []() { return std::make_unique<AffinityAwarePolicy>(); };
}

Scheduler::Scheduler(sim::Cluster &cluster, SchedulerOptions options)
    : cluster_(&cluster), options_(std::move(options)),
      shed_by_machine_(cluster.size(), 0)
{
    policy_ = options_.placement ? options_.placement()
                                 : makeLeastLoadedPlacement()();
    if (policy_ == nullptr)
        throw std::invalid_argument(
            "Scheduler: placement factory returned null");
    admission_ = options_.admission ? options_.admission()
                                    : makeQueueDepthAdmission()();
    if (admission_ == nullptr)
        throw std::invalid_argument(
            "Scheduler: admission factory returned null");
    policy_->bindModel(options_.model);
}

std::optional<Admission>
Scheduler::tryAdmit(const OfferedJob &job)
{
    // Before the policy decides or any counter moves: a shed job's
    // class sizes the per-class tally, so SIZE_MAX would wrap it.
    if (const char *why =
            workload::badJobTerms(job.job_class, job.deadline_s))
        throw std::invalid_argument(std::string("Scheduler: job's ") +
                                    why);
    const AdmissionContext context{
        *cluster_, *policy_, options_.queue_depth, options_.model,
        have_decision_ ? &last_decision_ : nullptr};
    const AdmissionVerdict verdict = admission_->decide(job, context);
    if (verdict.policy_pick >= cluster_->size() ||
        (verdict.machine.has_value() &&
         *verdict.machine >= cluster_->size()))
        throw std::logic_error("Scheduler: policy picked a bad machine");
    last_verdict_ = verdict;
    if (!verdict.machine.has_value()) {
        // Shed: charge the job to the host the policy chose for it
        // and to its priority class.
        ++shed_;
        ++shed_by_machine_[verdict.policy_pick];
        if (job.job_class >= shed_by_class_.size())
            shed_by_class_.resize(job.job_class + 1, 0);
        ++shed_by_class_[job.job_class];
        return std::nullopt;
    }
    cluster_->place(*verdict.machine);
    return Admission{*verdict.machine, verdict.predicted_s};
}

void
Scheduler::release(std::size_t machine)
{
    cluster_->release(machine);
}

void
Scheduler::noteArbitration(const ArbitrationDecision &decision)
{
    last_decision_ = decision;
    have_decision_ = true;
    admission_->noteArbitration(decision);
}

void
Scheduler::noteCompletion(double observed_s, double predicted_s)
{
    admission_->noteCompletion(observed_s, predicted_s);
}

} // namespace powerdial::fleet

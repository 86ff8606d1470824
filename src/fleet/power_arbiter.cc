#include "fleet/power_arbiter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace powerdial::fleet {

namespace {

/** Largest duty-cycle pause ratio the arbiter will impose. */
constexpr double kMaxPauseRatio = 10.0;

/**
 * The QoS-feedback step of both informed splits: under
 * ArbiterPolicy::QosFeedback, with one loss per machine, scale each
 * machine's split @p weights by its loss relative to the fleet mean
 * and re-sum @p weight_sum. A no-op for any other policy, a
 * mismatched @p qos_loss, or a mean loss of 0.
 */
void
applyQosFeedback(const ArbiterOptions &options,
                 const std::vector<double> &qos_loss,
                 std::vector<double> &weights, double &weight_sum)
{
    const std::size_t n = weights.size();
    if (options.policy != ArbiterPolicy::QosFeedback ||
        qos_loss.size() != n)
        return;
    double mean = 0.0;
    for (const double q : qos_loss)
        mean += q;
    mean /= static_cast<double>(n);
    if (mean > 0.0) {
        // Shift weight toward machines whose tenants lost more QoS
        // than the fleet average last epoch. The clamp keeps one
        // epoch's error from starving anyone outright, and — because
        // it keeps every scale positive — preserves weight_sum > 0.
        weight_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double error = (qos_loss[i] - mean) / mean;
            const double scale = std::clamp(
                1.0 + options.feedback_gain * error, 0.1, 10.0);
            weights[i] *= scale;
            weight_sum += weights[i];
        }
    }
}

/**
 * Cap @p machine at P-state @p cap and run it there, as fast as the cap
 * allows. A machine that already holds the cap at that P-state is left
 * as it is: re-installing would recompute the same cached power.
 */
void
installCap(sim::Machine &machine, std::size_t cap)
{
    if (machine.pstateCap() == cap && machine.pstate() == cap)
        return;
    machine.setPStateCap(cap);
    machine.setPState(cap);
}

} // namespace

const char *
arbiterPolicyName(ArbiterPolicy policy)
{
    switch (policy) {
    case ArbiterPolicy::Uniform:
        return "uniform";
    case ArbiterPolicy::UtilizationProportional:
        return "util-proportional";
    case ArbiterPolicy::QosFeedback:
        return "qos-feedback";
    }
    return "unknown";
}

PowerArbiter::PowerArbiter(const ArbiterOptions &options)
    : options_(options)
{
    // Written so that NaN, which fails every ordered comparison,
    // fails each check too.
    if (!std::isfinite(options_.cluster_cap_watts))
        throw std::invalid_argument(
            "PowerArbiter: cluster cap must be finite (<= 0 = uncapped)");
    if (!(options_.feedback_gain >= 0.0 && options_.feedback_gain <= 1.0))
        throw std::invalid_argument(
            "PowerArbiter: feedback gain must be in [0, 1]");
}

std::size_t
PowerArbiter::pstateCapFor(const sim::Machine &machine,
                           double budget_watts, double utilization)
{
    const std::size_t states = machine.scale().states();
    for (std::size_t s = 0; s < states; ++s)
        if (machine.wattsAt(s, utilization) <= budget_watts)
            return s;
    return states - 1;
}

void
PowerArbiter::splitBudget(const sim::Cluster &cluster,
                          const std::vector<double> &qos_loss,
                          std::vector<double> &budgets)
{
    const std::size_t n = cluster.size();
    const double cap = options_.cluster_cap_watts;
    budgets.assign(n, cap / static_cast<double>(n));
    if (options_.policy == ArbiterPolicy::Uniform)
        return;
    if (cluster.heterogeneous()) {
        splitBudgetHeterogeneous(cluster, qos_loss, budgets);
        return;
    }

    // Both informed policies start from an idle floor for every
    // machine (idle machines are powered on, not off) and split the
    // remaining headroom by weight. If the cap cannot even cover the
    // idle floors there is no headroom to steer; fall back to uniform.
    const double idle =
        cluster.machine(0).powerModel().idleWatts();
    const double headroom = cap - idle * static_cast<double>(n);
    if (headroom <= 0.0)
        return;

    std::vector<double> &weights = weights_;
    weights.assign(n, 0.0);
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = static_cast<double>(cluster.activeOn(i));
        weight_sum += weights[i];
    }
    if (weight_sum == 0.0) {
        std::fill(weights.begin(), weights.end(), 1.0);
        weight_sum = static_cast<double>(n);
    }

    applyQosFeedback(options_, qos_loss, weights, weight_sum);

    for (std::size_t i = 0; i < n; ++i)
        budgets[i] = idle + headroom * weights[i] / weight_sum;
}

void
PowerArbiter::splitBudgetHeterogeneous(
    const sim::Cluster &cluster, const std::vector<double> &qos_loss,
    std::vector<double> &budgets)
{
    // The mixed-fleet generalisation of the informed split above: the
    // idle floor and the weight are per-class. Every machine gets its
    // own class's idle draw as a floor; the remaining headroom is
    // split by active instances scaled by the class's dynamic range
    // (peak - idle), so one active instance on a big machine commands
    // more of the cap than one on a low-power node — proportional to
    // the watts that instance can actually turn into speed. Kept as a
    // separate function (not a parameterised merge) so homogeneous
    // fleets keep the legacy arithmetic and its exact rounding.
    // @p budgets arrives as the uniform split, the fallback.
    const std::size_t n = cluster.size();
    const double cap = options_.cluster_cap_watts;

    std::vector<double> &floors = floors_;
    floors.assign(n, 0.0);
    double floor_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        floors[i] = cluster.machine(i).powerModel().idleWatts();
        floor_sum += floors[i];
    }
    const double headroom = cap - floor_sum;
    if (headroom <= 0.0)
        return;

    std::vector<double> &weights = weights_;
    weights.assign(n, 0.0);
    double weight_sum = 0.0;
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i)
        any_active = any_active || cluster.activeOn(i) > 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double range =
            cluster.machine(i).powerModel().peakWatts() - floors[i];
        weights[i] = any_active
            ? static_cast<double>(cluster.activeOn(i)) * range
            : range;
        weight_sum += weights[i];
    }
    if (weight_sum <= 0.0)
        return;

    applyQosFeedback(options_, qos_loss, weights, weight_sum);

    for (std::size_t i = 0; i < n; ++i)
        budgets[i] = floors[i] + headroom * weights[i] / weight_sum;
}

ArbitrationDecision
PowerArbiter::arbitrate(sim::Cluster &cluster,
                        const std::vector<double> &qos_loss)
{
    ArbitrationDecision decision;
    arbitrate(cluster, qos_loss, decision);
    return decision;
}

void
PowerArbiter::arbitrate(sim::Cluster &cluster,
                        const std::vector<double> &qos_loss,
                        ArbitrationDecision &decision)
{
    const std::size_t n = cluster.size();
    decision.pstate_cap.assign(n, 0);
    decision.pause_ratio.assign(n, 0.0);

    if (options_.cluster_cap_watts <= 0.0) {
        // Uncapped: every machine runs at full frequency.
        decision.budget_watts.assign(
            n, std::numeric_limits<double>::infinity());
        for (std::size_t i = 0; i < n; ++i)
            installCap(cluster.machine(i), 0);
        return;
    }

    splitBudget(cluster, qos_loss, decision.budget_watts);
    for (std::size_t i = 0; i < n; ++i) {
        sim::Machine &machine = cluster.machine(i);
        const double budget = decision.budget_watts[i];
        const double util =
            cluster.loadOf(i, cluster.activeOn(i)).utilization;
        const std::size_t cap = pstateCapFor(machine, budget, util);
        installCap(machine, cap);
        decision.pstate_cap[i] = cap;

        // Even the slowest state may overshoot a tight budget; meet
        // it on average by duty-cycling the machine's tenants between
        // busy and idle (the session gate inserts the pauses).
        const double busy_watts = machine.wattsAt(machine.pstate(), util);
        if (busy_watts > budget) {
            const double idle_watts =
                machine.powerModel().idleWatts();
            const double ratio = budget > idle_watts
                ? (busy_watts - budget) / (budget - idle_watts)
                : kMaxPauseRatio;
            decision.pause_ratio[i] =
                std::clamp(ratio, 0.0, kMaxPauseRatio);
        }
    }
}

} // namespace powerdial::fleet

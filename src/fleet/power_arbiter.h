/**
 * @file
 * Cluster-wide power-budget arbitration for the fleet subsystem.
 *
 * The paper evaluates power caps per machine (section 5.4: a DVFS
 * drop imposed and lifted on one server). A fleet operator instead
 * holds one *cluster-wide* cap and must decide, every control epoch,
 * how to split it across machines. The PowerArbiter closes that loop:
 * it divides the cluster cap into per-machine power budgets (uniform,
 * utilisation-proportional, or QoS-feedback redistribution), then
 * translates each budget into the per-machine DVFS cap
 * (sim::Machine::setPStateCap) the machine's tenants run under for
 * the epoch. Budgets always conserve the cap: their sum never exceeds
 * the cluster cap (pinned by tests/test_fleet.cc).
 */
#ifndef POWERDIAL_FLEET_POWER_ARBITER_H
#define POWERDIAL_FLEET_POWER_ARBITER_H

#include <string>
#include <vector>

#include "sim/cluster.h"

namespace powerdial::fleet {

/** How the cluster cap is split across machines each epoch. */
enum class ArbiterPolicy
{
    /** Equal budget per machine, load-blind (the naive baseline). */
    Uniform,
    /** Idle floor for everyone; the rest proportional to active jobs. */
    UtilizationProportional,
    /**
     * Utilisation-proportional start, then budget shifts toward
     * machines whose tenants reported above-average QoS loss last
     * epoch — the fleet analogue of the paper's feedback law, using
     * delivered QoS instead of heart rate as the error signal.
     */
    QosFeedback,
};

/** Human-readable policy name for reports. */
const char *arbiterPolicyName(ArbiterPolicy policy);

/** Arbitration parameters. */
struct ArbiterOptions
{
    /** Cluster-wide power cap, watts. <= 0 means uncapped; must be
     *  finite (PowerArbiter's constructor rejects NaN and infinities). */
    double cluster_cap_watts = 0.0;
    ArbiterPolicy policy = ArbiterPolicy::Uniform;
    /**
     * QosFeedback only: fraction of a machine's budget that may move
     * per epoch in response to the QoS-loss error, in [0, 1] (NaN is
     * rejected).
     */
    double feedback_gain = 0.5;
};

/** Per-machine outcome of one arbitration epoch. */
struct ArbitrationDecision
{
    std::vector<double> budget_watts;   //!< Per-machine budget.
    std::vector<std::size_t> pstate_cap;//!< Installed DVFS cap.
    /**
     * Per-machine duty-cycle pause ratio: > 0 when even the slowest
     * P-state cannot meet the budget at the machine's utilisation.
     * Tenants then idle ratio seconds per busy second of each beat's
     * work (core::BeatGateContext::pause_per_busy, delivered through
     * the session gate), which holds the machine's average power at
     * (W_busy + ratio * W_idle) / (1 + ratio) == budget regardless of
     * the tenants' share, frequency, and knob settings.
     */
    std::vector<double> pause_ratio;
};

/**
 * Splits a cluster power cap into per-machine DVFS caps each epoch.
 */
class PowerArbiter
{
  public:
    explicit PowerArbiter(const ArbiterOptions &options);

    const ArbiterOptions &options() const { return options_; }

    /**
     * Arbitrate one epoch: compute per-machine budgets from the
     * cluster's dynamic occupancy and last epoch's per-machine mean
     * tenant QoS loss, then install the resulting P-state caps on the
     * cluster's machines (settable mid-run). With no cap configured,
     * budgets are unbounded and every machine is uncapped.
     *
     * @param cluster  Live cluster (occupancy read, machine caps written).
     * @param qos_loss Last-known per-machine mean tenant QoS loss
     *                 (the caller retains a machine's previous value
     *                 over epochs in which it hosted no new tenants,
     *                 so the signal persists across idle gaps); empty
     *                 means no feedback yet.
     */
    ArbitrationDecision arbitrate(sim::Cluster &cluster,
                                  const std::vector<double> &qos_loss);

    /**
     * The same round, written into @p decision in place. A decision
     * reused across rounds of one cluster keeps its storage, so the
     * round allocates nothing. A machine that already holds its new
     * P-state cap (at that P-state) is left untouched.
     */
    void arbitrate(sim::Cluster &cluster,
                   const std::vector<double> &qos_loss,
                   ArbitrationDecision &decision);

    /**
     * The fastest P-state whose model power at @p utilization fits
     * within @p budget_watts; the slowest state if none fits.
     */
    static std::size_t pstateCapFor(const sim::Machine &machine,
                                    double budget_watts,
                                    double utilization);

  private:
    /** Split the cap into @p budgets, one per machine. */
    void splitBudget(const sim::Cluster &cluster,
                     const std::vector<double> &qos_loss,
                     std::vector<double> &budgets);

    /**
     * The informed split for mixed fleets: per-class idle floors, and
     * headroom weighted by active instances times the class's dynamic
     * power range (peak - idle). Homogeneous fleets never reach this
     * path, so the legacy split's exact rounding is preserved.
     */
    void splitBudgetHeterogeneous(const sim::Cluster &cluster,
                                  const std::vector<double> &qos_loss,
                                  std::vector<double> &budgets);

    ArbiterOptions options_;
    // Per-machine scratch of the splits, reused across rounds.
    std::vector<double> weights_;
    std::vector<double> floors_;
};

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_POWER_ARBITER_H

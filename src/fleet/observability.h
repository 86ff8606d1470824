/**
 * @file
 * Fleet-plane decision attribution: the tracer both engines call at
 * their serial decision points, plus the FleetReport-to-metrics
 * bridge.
 *
 * The FleetTracer wraps an optional obs::TraceSink and renders each
 * fleet decision as structured records on the serial fleet stream
 * (TraceSink::emitFleet): per-candidate placement costs, admission
 * verdicts with the full pricing math (predicted latency, margin,
 * class headroom), sheds with their attributed cause, arbitration
 * terms per machine, and every lease rewrite. With no sink attached
 * every method is one null check — the engines call the tracer
 * unconditionally.
 *
 * All methods must be called from the engines' serial sections only
 * (admission, arbitration, and lease writes already are): emitFleet
 * assigns a single monotone sequence, which is what makes the fleet
 * plane's trace order thread-count independent.
 */
#ifndef POWERDIAL_FLEET_OBSERVABILITY_H
#define POWERDIAL_FLEET_OBSERVABILITY_H

#include <cstddef>
#include <vector>

#include "fleet/server.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace powerdial::fleet {

class FleetTracer
{
  public:
    FleetTracer() = default;
    explicit FleetTracer(obs::TraceSink *sink) : sink_(sink) {}

    /** Whether any sink is attached at all. */
    bool on() const { return sink_ != nullptr; }

    /** Set the fleet virtual time the next records carry. */
    void at(double now_s) { now_s_ = now_s; }

    /** Whether per-candidate placement records would be kept — the
     *  caller gates the candidateCosts() computation on this. */
    bool
    wantsPlacement() const
    {
        return sink_ != nullptr &&
            sink_->wants(obs::kCatPlacement, obs::Severity::Info);
    }

    /** One Placement record per machine: the cost vector the policy
     *  minimized for offer @p offer (empty = policy has no costs). */
    void placement(std::size_t offer,
                   const std::vector<double> &costs);

    /** Offer @p offer was admitted as fleet job @p job_id under
     *  @p verdict's pricing. */
    void admit(std::size_t offer, const workload::OfferedJob &job,
               const AdmissionVerdict &verdict, std::size_t job_id);

    /** Offer @p offer was turned away; the cause and pricing are in
     *  @p verdict, the charge lands on verdict.policy_pick. */
    void shed(std::size_t offer, const workload::OfferedJob &job,
              const AdmissionVerdict &verdict);

    /** One arbitration round: a record per machine with its budget,
     *  DVFS cap, and duty-cycle pause. */
    void arbitration(std::size_t generation,
                     const ArbitrationDecision &decision);

    /** Whether lease records would be kept — the serve gates its
     *  per-tenant walk after an arbitration round on this. */
    bool
    wantsLeases() const
    {
        return sink_ != nullptr &&
            sink_->wants(obs::kCatArbitration, obs::Severity::Info);
    }

    /** Job @p job's lease was rewritten to @p lease's terms. */
    void lease(std::size_t job, std::size_t tenant,
               std::size_t machine, const ArbitrationLease &lease);

  private:
    obs::TraceSink *sink_ = nullptr;
    double now_s_ = 0.0;
};

/**
 * Fold one serve's FleetReport into the metrics registry: job/shed/
 * drain counters (sheds also per priority class), log-scale histograms
 * of completion latency, QoS loss, epoch cluster power, and epoch
 * queue depth, and the summed latency breakdown by component.
 * Deterministic: every value comes from the (already thread-count-
 * independent) report, so the Prometheus exposition is byte-identical
 * across runs of the same scenario.
 */
void recordFleetMetrics(obs::MetricsRegistry &registry,
                        const FleetReport &report);

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_OBSERVABILITY_H

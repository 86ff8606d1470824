/**
 * @file
 * The calibrated knob response model.
 *
 * Output of dynamic knob calibration (paper section 2.2): for every knob
 * combination, its mean speedup and mean QoS loss over the training
 * inputs, relative to the baseline (highest-QoS) combination; plus the
 * Pareto-optimal subset the control system actuates over.
 */
#ifndef POWERDIAL_CORE_RESPONSE_MODEL_H
#define POWERDIAL_CORE_RESPONSE_MODEL_H

#include <cstddef>
#include <utility>
#include <vector>

#include "core/pareto.h"

namespace powerdial::core {

/** Calibrated trade-off model for one application. */
class ResponseModel
{
  public:
    ResponseModel() = default;

    /**
     * @param all_points        Every calibrated combination.
     * @param baseline          The baseline (highest-QoS) combination.
     * @param baseline_seconds  Mean baseline execution time (training).
     * @param baseline_rate     Mean baseline heart rate, beats/second.
     * @param qos_cap           Optional cap on admissible QoS loss
     *                          (paper section 2.2); points above the cap
     *                          are excluded from the Pareto frontier.
     */
    ResponseModel(std::vector<OperatingPoint> all_points,
                  std::size_t baseline, double baseline_seconds,
                  double baseline_rate,
                  double qos_cap = -1.0);

    /** Every calibrated operating point (training means). */
    const std::vector<OperatingPoint> &allPoints() const { return all_; }

    /**
     * The calibrated point of knob combination @p combination — the
     * first point of allPoints() with that combination — or null when
     * it has none. A lookup in an index built with the model, so a
     * session reads the installed combination's point without
     * scanning allPoints().
     */
    const OperatingPoint *pointOf(std::size_t combination) const;

    /** Pareto frontier, ascending speedup. Always contains baseline. */
    const std::vector<OperatingPoint> &pareto() const { return pareto_; }

    /** The baseline combination index. */
    std::size_t baselineCombination() const { return baseline_; }

    /** Mean baseline execution time over the training inputs, seconds. */
    double baselineSeconds() const { return baseline_seconds_; }

    /** Mean baseline heart rate, beats/second. */
    double baselineRate() const { return baseline_rate_; }

    /** Largest Pareto speedup. */
    double maxSpeedup() const;

    /**
     * The slowest Pareto point with speedup >= @p speedup — the
     * "minimum speedup s_min >= g/h" of the actuation policy
     * (paper section 2.3.3). Returns the fastest point if none qualify.
     */
    const OperatingPoint &atLeast(double speedup) const;

    /** The fastest Pareto point (s_max). */
    const OperatingPoint &fastest() const;

    /** The baseline operating point (speedup 1, qos 0 by construction). */
    const OperatingPoint &baselinePoint() const;

    /**
     * The fastest Pareto point whose QoS loss is <= @p qos_bound —
     * S(QoS) of the analytical models (paper section 3).
     */
    const OperatingPoint &bestWithinQoS(double qos_bound) const;

    /** Linear interpolation of QoS loss at @p speedup on the frontier. */
    double qosLossAtSpeedup(double speedup) const;

  private:
    std::vector<OperatingPoint> all_;
    /** (combination, index into all_ of its first point), ascending. */
    std::vector<std::pair<std::size_t, std::size_t>> first_point_;
    std::vector<OperatingPoint> pareto_;
    std::size_t baseline_ = 0;
    double baseline_seconds_ = 0.0;
    double baseline_rate_ = 0.0;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_RESPONSE_MODEL_H

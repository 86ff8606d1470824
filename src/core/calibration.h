/**
 * @file
 * Dynamic knob calibration (paper section 2.2).
 *
 * For each combination of parameter settings the calibrator executes
 * every training input on a fresh simulated machine, records the mean
 * speedup (baseline execution time / combination execution time) and
 * the mean QoS loss (distortion of the output abstraction against the
 * baseline execution, Equation 1), and builds the ResponseModel whose
 * Pareto frontier the control system actuates over.
 */
#ifndef POWERDIAL_CORE_CALIBRATION_H
#define POWERDIAL_CORE_CALIBRATION_H

#include <vector>

#include "core/app.h"
#include "core/response_model.h"

namespace powerdial::core {

/** Measured execution of one (input, combination) pair. */
struct RunMeasurement
{
    double seconds = 0.0; //!< Virtual execution time.
    qos::OutputAbstraction output;
};

/**
 * Execute @p app on input @p input with knob combination @p combination
 * held fixed (no control system), on a fresh machine configured by
 * @p config at P-state 0. The building block of calibration and of the
 * trade-off figures.
 */
RunMeasurement runFixed(App &app, std::size_t input,
                        std::size_t combination,
                        const sim::Machine::Config &config = {});

/** Calibration options. */
struct CalibrationOptions
{
    /** Machine the training runs execute on. */
    sim::Machine::Config machine{};
    /**
     * Cap on admissible QoS loss; combinations above the cap are
     * excluded from the Pareto frontier (paper section 2.2). Negative
     * means no cap.
     */
    double qos_cap = -1.0;
    /**
     * Worker threads for the calibration sweep: 1 (the default) runs
     * the sweep on the caller's thread and app; 0 uses
     * std::thread::hardware_concurrency(); N > 1 fans the independent
     * (combination, input) runs out over N workers: the caller on its
     * app and N - 1 helpers, each owning a private App::clone(). The
     * result is bit-identical regardless of the thread count.
     */
    std::size_t threads = 1;
};

/** Per-combination, per-input raw calibration data (for Table 2). */
struct CalibrationData
{
    /** speedups[combination][input_position]. */
    std::vector<std::vector<double>> speedups;
    /** qos_losses[combination][input_position]. */
    std::vector<std::vector<double>> qos_losses;
};

/** Full calibration output. */
struct CalibrationResult
{
    ResponseModel model;
    CalibrationData data;
};

/**
 * Calibrate @p app over @p inputs (indices into the app's input set).
 */
CalibrationResult calibrate(App &app,
                            const std::vector<std::size_t> &inputs,
                            const CalibrationOptions &options = {});

/**
 * Pearson correlation coefficient between two equally sized samples —
 * Table 2 reports this between training and production means.
 * Returns 1.0 for degenerate (zero-variance) inputs that are equal.
 */
double correlation(const std::vector<double> &a,
                   const std::vector<double> &b);

} // namespace powerdial::core

#endif // POWERDIAL_CORE_CALIBRATION_H

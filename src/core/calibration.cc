#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fanout.h"

namespace powerdial::core {

RunMeasurement
runFixed(App &app, std::size_t input, std::size_t combination,
         const sim::Machine::Config &config)
{
    app.configure(app.knobSpace().valuesOf(combination));
    app.loadInput(input);
    sim::Machine machine(config);
    const double start = machine.now();
    const std::size_t units = app.unitCount();
    for (std::size_t u = 0; u < units; ++u)
        app.processUnit(u, machine);
    RunMeasurement m;
    m.seconds = machine.now() - start;
    m.output = app.output();
    return m;
}

CalibrationResult
calibrate(App &app, const std::vector<std::size_t> &inputs,
          const CalibrationOptions &options)
{
    if (inputs.empty())
        throw std::invalid_argument("calibrate: no training inputs");

    const KnobSpace &space = app.knobSpace();
    const std::size_t baseline = app.defaultCombination();
    const std::size_t total_runs = space.combinations() * inputs.size();
    // The engine caps the workers (each owning a full app) at the
    // number of runs to claim. Worker 0 runs on the caller's app and
    // every other worker on a private clone, made serially up front.
    FanoutEngine engine(options.threads, total_runs);
    const auto clones = FanoutEngine::cloneApps(app, engine.workers() - 1);
    const auto appOf = [&](std::size_t worker) -> App & {
        return worker == 0 ? app : *clones[worker - 1];
    };

    // Baseline pass: per-input reference time and output abstraction.
    std::vector<RunMeasurement> base(inputs.size());
    engine.run(inputs.size(), [&](std::size_t i, std::size_t w) {
        base[i] = runFixed(appOf(w), inputs[i], baseline, options.machine);
    });
    for (const RunMeasurement &m : base)
        if (m.seconds <= 0.0)
            throw std::logic_error("calibrate: zero baseline time");

    // The independent (combination, input) runs land in disjoint slots
    // of a grid, whichever worker runs them.
    std::vector<RunMeasurement> grid(total_runs);
    engine.run(total_runs, [&](std::size_t task, std::size_t w) {
        const std::size_t c = task / inputs.size();
        const std::size_t i = task % inputs.size();
        if (c == baseline)
            return; // Reuses the baseline pass below.
        grid[task] = runFixed(appOf(w), inputs[i], c, options.machine);
    });

    // Merge serially in combination-then-input order, so the result is
    // bit-identical at any thread count.
    CalibrationData data;
    data.speedups.resize(space.combinations());
    data.qos_losses.resize(space.combinations());
    std::vector<OperatingPoint> points;
    points.reserve(space.combinations());
    for (std::size_t c = 0; c < space.combinations(); ++c) {
        double speedup_sum = 0.0;
        double qos_sum = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const RunMeasurement &m =
                c == baseline ? base[i] : grid[c * inputs.size() + i];
            const double speedup = base[i].seconds / m.seconds;
            const double qos = qos::distortion(base[i].output, m.output);
            data.speedups[c].push_back(speedup);
            data.qos_losses[c].push_back(qos);
            speedup_sum += speedup;
            qos_sum += qos;
        }
        const double n = static_cast<double>(inputs.size());
        points.push_back({c, speedup_sum / n, qos_sum / n});
    }

    // Mean baseline time and heart rate (units/second) over the
    // training inputs, used as the controller's model of b.
    double baseline_mean_seconds = 0.0;
    double baseline_mean_units = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        app.loadInput(inputs[i]);
        baseline_mean_seconds += base[i].seconds;
        baseline_mean_units += static_cast<double>(app.unitCount());
    }
    baseline_mean_seconds /= static_cast<double>(inputs.size());
    baseline_mean_units /= static_cast<double>(inputs.size());
    const double baseline_rate = baseline_mean_units /
                                 baseline_mean_seconds;

    CalibrationResult result{
        ResponseModel(points, baseline, baseline_mean_seconds,
                      baseline_rate, options.qos_cap),
        std::move(data)};
    return result;
}

double
correlation(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.empty())
        throw std::invalid_argument("correlation: size mismatch");
    const double n = static_cast<double>(a.size());
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= n;
    mb /= n;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0) {
        // Degenerate: constant series. Correlated iff identical means.
        return ma == mb ? 1.0 : 0.0;
    }
    return cov / std::sqrt(va * vb);
}

} // namespace powerdial::core

#include "sim/power_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::sim {

PowerModel::PowerModel(const PowerModelParams &params) : params_(params)
{
    // Each check is written so that NaN, which fails every ordered
    // comparison, fails it too; bounding the upper end by a finite
    // value bounds the lower end.
    if (!(params_.idle_watts >= 0.0 &&
          params_.peak_watts > params_.idle_watts &&
          std::isfinite(params_.peak_watts)))
        throw std::invalid_argument(
            "PowerModel: need 0 <= idle < peak, finite");
    if (!(params_.f_min_hz > 0.0 && params_.f_max_hz > params_.f_min_hz &&
          std::isfinite(params_.f_max_hz)))
        throw std::invalid_argument(
            "PowerModel: need 0 < f_min < f_max, finite");
    if (!(params_.v_min > 0.0 && params_.v_max >= params_.v_min &&
          std::isfinite(params_.v_max)))
        throw std::invalid_argument(
            "PowerModel: need 0 < v_min <= v_max, finite");
    dyn_norm_ = params_.f_max_hz * params_.v_max * params_.v_max;
}

double
PowerModel::voltage(double freq_hz) const
{
    const double f = std::clamp(freq_hz, params_.f_min_hz, params_.f_max_hz);
    const double t =
        (f - params_.f_min_hz) / (params_.f_max_hz - params_.f_min_hz);
    return params_.v_min + t * (params_.v_max - params_.v_min);
}

double
PowerModel::dynamicFraction(double freq_hz) const
{
    const double v = voltage(freq_hz);
    return (freq_hz * v * v) / dyn_norm_;
}

} // namespace powerdial::sim

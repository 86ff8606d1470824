#include "workload/arrivals.h"

#include <cmath>
#include <stdexcept>

namespace powerdial::workload {

std::size_t
poissonDeviate(Rng &rng, double lambda)
{
    if (lambda < 0.0)
        throw std::invalid_argument("poissonDeviate: negative mean");
    // A NaN mean would fail every test below and draw 0; an infinite
    // one would reach the size_t cast below out of range.
    if (!std::isfinite(lambda))
        throw std::invalid_argument("poissonDeviate: mean is not finite");
    // Knuth's method needs exp(-lambda) > 0; past ~708, exp
    // underflows to 0 and every draw would silently saturate near
    // 708 instead of following Poisson(lambda). At such means the
    // normal approximation N(lambda, lambda) is accurate to far
    // better than the ~4% relative noise of the distribution itself
    // (skewness ~ 1/sqrt(lambda) < 0.04), so scale-bench traces with
    // thousands of arrivals per step draw one Gaussian instead. The
    // threshold keeps every lambda <= 700 sequence bit-identical to
    // the pre-approximation generator.
    if (lambda > 700.0) {
        const double draw =
            std::round(rng.gaussian(lambda, std::sqrt(lambda)));
        // 2^64: the first double a size_t cannot hold.
        if (!(draw < 18446744073709551616.0))
            throw std::invalid_argument(
                "poissonDeviate: mean too large for a size_t count");
        return draw > 0.0 ? static_cast<std::size_t>(draw) : 0;
    }
    if (lambda == 0.0)
        return 0;
    // Knuth: multiply uniforms until the product drops below e^-lambda.
    // Exact and deterministic; fine for the per-step means (tens at
    // most) a serving trace produces.
    const double threshold = std::exp(-lambda);
    std::size_t k = 0;
    double product = rng.uniform();
    while (product > threshold) {
        ++k;
        product *= rng.uniform();
    }
    return k;
}

std::size_t
poissonArrivalAt(const PoissonArrivalParams &params, std::size_t step,
                 double level)
{
    if (params.peak_rate < 0.0)
        throw std::invalid_argument(
            "makePoissonArrivals: negative peak rate");
    // One substream per step, derived from (seed, step) alone. The
    // golden-ratio stride is the SplitMix64 increment: linear seeds
    // land on well-separated SplitMix64 trajectories, so neighbouring
    // steps are decorrelated even though their seeds differ by a
    // constant. step + 1 keeps step 0 off the bare trace seed (which
    // other generators may already use for unrelated streams).
    Rng rng(params.seed + 0x9e3779b97f4a7c15ULL * (step + 1));
    return poissonDeviate(rng, level * params.peak_rate);
}

std::vector<std::size_t>
makePoissonArrivals(const std::vector<double> &trace,
                    const PoissonArrivalParams &params,
                    std::size_t first_step)
{
    std::vector<std::size_t> arrivals;
    arrivals.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        arrivals.push_back(
            poissonArrivalAt(params, first_step + i, trace[i]));
    return arrivals;
}

} // namespace powerdial::workload

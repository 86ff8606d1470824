#include "workload/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::workload {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s)
{
    if (n == 0)
        throw std::invalid_argument("ZipfSampler: empty support");
    // Written so NaN fails too: it would send every draw to rank 0.
    if (!(s >= 0.0))
        throw std::invalid_argument("ZipfSampler: negative or NaN skew");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;
    cdf_.back() = 1.0; // Guard against floating-point shortfall.
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

double
ZipfSampler::pmf(std::size_t k) const
{
    if (k >= cdf_.size())
        throw std::out_of_range("ZipfSampler: rank out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

} // namespace powerdial::workload

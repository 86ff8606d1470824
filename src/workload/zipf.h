/**
 * @file
 * Zipf (power-law) sampling for corpus and query synthesis.
 *
 * The paper builds swish++ queries by selecting dictionary words "at
 * random following a power law distribution" (section 4.4, after
 * Middleton & Baeza-Yates). Natural-language word frequencies are
 * themselves Zipf-distributed, so the synthetic corpus uses the same
 * sampler.
 */
#ifndef POWERDIAL_WORKLOAD_ZIPF_H
#define POWERDIAL_WORKLOAD_ZIPF_H

#include <cstdint>
#include <vector>

#include "workload/rng.h"

namespace powerdial::workload {

/**
 * Samples ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s,
 * via inverse-CDF lookup on a precomputed table.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of ranks (> 0).
     * @param s Skew exponent (>= 0, not NaN; 1.0 is classic Zipf, 0
     *          degrades to the uniform distribution over the n ranks).
     */
    ZipfSampler(std::size_t n, double s);

    /** Draw one rank. */
    std::size_t sample(Rng &rng) const;

    /** Probability mass of rank @p k. */
    double pmf(std::size_t k) const;

    std::size_t size() const { return cdf_.size(); }
    double skew() const { return s_; }

  private:
    double s_;
    std::vector<double> cdf_;
};

} // namespace powerdial::workload

#endif // POWERDIAL_WORKLOAD_ZIPF_H

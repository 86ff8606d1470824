#include "sim/frequency.h"

#include <cmath>
#include <stdexcept>

namespace powerdial::sim {

FrequencyScale::FrequencyScale(std::vector<double> freqs_hz)
    : freqs_hz_(std::move(freqs_hz))
{
    // Each check is written so that NaN, which fails every ordered
    // comparison, fails it too.
    if (freqs_hz_.empty())
        throw std::invalid_argument("FrequencyScale: empty frequency list");
    if (!std::isfinite(freqs_hz_.front()))
        throw std::invalid_argument("FrequencyScale: non-finite frequency");
    for (std::size_t i = 0; i + 1 < freqs_hz_.size(); ++i) {
        if (!(freqs_hz_[i] > freqs_hz_[i + 1])) {
            throw std::invalid_argument(
                "FrequencyScale: frequencies must be strictly decreasing");
        }
    }
    if (!(freqs_hz_.back() > 0.0))
        throw std::invalid_argument("FrequencyScale: non-positive frequency");
}

FrequencyScale
FrequencyScale::xeonE5530()
{
    // Paper Figure 6 x-axis: 2.4, 2.26, 2.13, 2, 1.86, 1.73, 1.6 GHz.
    return FrequencyScale({2.40 * kGHz, 2.26 * kGHz, 2.13 * kGHz,
                           2.00 * kGHz, 1.86 * kGHz, 1.73 * kGHz,
                           1.60 * kGHz});
}

double
FrequencyScale::frequencyHz(std::size_t state) const
{
    if (state >= freqs_hz_.size())
        throw std::out_of_range("FrequencyScale: bad P-state");
    return freqs_hz_[state];
}

std::size_t
FrequencyScale::closestState(double hz) const
{
    std::size_t best = 0;
    double best_err = std::abs(freqs_hz_[0] - hz);
    for (std::size_t i = 1; i < freqs_hz_.size(); ++i) {
        const double err = std::abs(freqs_hz_[i] - hz);
        if (err < best_err) {
            best = i;
            best_err = err;
        }
    }
    return best;
}

} // namespace powerdial::sim

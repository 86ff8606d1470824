/**
 * @file
 * Processor frequency (P-state) table for the simulated machine.
 *
 * Models the DVFS capability of the paper's experimental platform (Dell
 * PowerEdge R410, Intel Xeon E5530): seven power states with clock
 * frequencies from 2.4 GHz down to 1.6 GHz (paper section 5.1).
 */
#ifndef POWERDIAL_SIM_FREQUENCY_H
#define POWERDIAL_SIM_FREQUENCY_H

#include <cstddef>
#include <vector>

namespace powerdial::sim {

/** One gigahertz, in hertz. */
inline constexpr double kGHz = 1e9;

/**
 * An immutable table of available clock frequencies (P-states), ordered
 * from the highest-performance state (index 0) to the lowest.
 */
class FrequencyScale
{
  public:
    /**
     * Build a scale from explicit frequencies in Hz.
     *
     * @param freqs_hz Frequencies, highest first. Must be non-empty,
     *                 finite, positive and strictly decreasing.
     */
    explicit FrequencyScale(std::vector<double> freqs_hz);

    /**
     * The seven-state 2.4 GHz .. 1.6 GHz scale of the paper's Xeon E5530
     * (evenly spaced, matching the frequency axis of Figure 6).
     */
    static FrequencyScale xeonE5530();

    /** Number of P-states. */
    std::size_t states() const { return freqs_hz_.size(); }

    /** Frequency of P-state @p state in Hz. Throws on out-of-range. */
    double frequencyHz(std::size_t state) const;

    /** Highest available frequency (P-state 0), in Hz. */
    double maxHz() const { return freqs_hz_.front(); }

    /** Lowest available frequency (deepest P-state), in Hz. */
    double minHz() const { return freqs_hz_.back(); }

    /** Index of the deepest (slowest) P-state. */
    std::size_t lowestState() const { return freqs_hz_.size() - 1; }

    /**
     * The P-state whose frequency is closest to @p hz.
     * Used by the DVFS governor to translate a requested cap into a state.
     */
    std::size_t closestState(double hz) const;

    /** All frequencies, highest first. */
    const std::vector<double> &frequencies() const { return freqs_hz_; }

  private:
    std::vector<double> freqs_hz_;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_FREQUENCY_H

/**
 * @file
 * Deterministic virtual time source for the simulated platform.
 *
 * All experiment time in this repository is virtual: applications cost
 * their work in cycles, the machine converts cycles to seconds at its
 * current frequency, and this clock accumulates the result. Using virtual
 * time makes every experiment deterministic and lets the power-cap and
 * consolidation scenarios (paper sections 5.4, 5.5) run in milliseconds
 * of real time.
 */
#ifndef POWERDIAL_SIM_VIRTUAL_CLOCK_H
#define POWERDIAL_SIM_VIRTUAL_CLOCK_H

#include <stdexcept>

namespace powerdial::sim {

/** A monotonically advancing virtual clock measured in seconds. */
class VirtualClock
{
  public:
    VirtualClock() = default;

    /** Current virtual time in seconds since construction. */
    double now() const { return now_s_; }

    /**
     * Advance the clock by @p dt seconds.
     * @throws std::invalid_argument if @p dt is negative or NaN.
     */
    void
    advance(double dt)
    {
        if (!(dt >= 0.0))
            throw std::invalid_argument("VirtualClock: negative advance");
        now_s_ += dt;
    }

    /**
     * Advance the clock to absolute time @p t (no-op if in the past).
     * @return true when the clock moved, false when @p t was not in
     *         the future — the signal the event-driven fleet engine
     *         uses to tell "a later event time" (tenants must advance)
     *         from "another event at the current time" apart without
     *         re-comparing doubles at every dispatch site.
     */
    bool
    advanceTo(double t)
    {
        if (t <= now_s_)
            return false;
        now_s_ = t;
        return true;
    }

    /** Rewind to time zero (reusing one clock across experiments). */
    void reset() { now_s_ = 0.0; }

  private:
    double now_s_ = 0.0;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_VIRTUAL_CLOCK_H

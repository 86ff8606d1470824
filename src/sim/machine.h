/**
 * @file
 * The simulated server machine.
 *
 * Stands in for the paper's Dell PowerEdge R410 (2x quad-core Xeon E5530,
 * seven DVFS states, cpufrequtils software frequency control). Application
 * work is expressed in *cycles*; the machine converts cycles to virtual
 * seconds at its current frequency and integrates full-system energy as
 * it goes. Dynamic knobs change the number of cycles an application needs
 * (work); DVFS changes how fast cycles retire (capacity). Those are the
 * two axes every experiment in the paper manipulates.
 */
#ifndef POWERDIAL_SIM_MACHINE_H
#define POWERDIAL_SIM_MACHINE_H

#include <cstddef>
#include <vector>

#include "sim/frequency.h"
#include "sim/power_model.h"
#include "sim/virtual_clock.h"

namespace powerdial::sim {

/** A contiguous span of virtual time at constant power draw. */
struct PowerSegment
{
    double start_s;  //!< Segment start, virtual seconds.
    double end_s;    //!< Segment end, virtual seconds.
    double watts;    //!< Constant full-system power during the segment.
};

/**
 * A single simulated server with DVFS, a power model, and an energy log.
 *
 * The machine supports a configurable number of hardware contexts
 * (cores). When more runnable instances than cores share the machine the
 * per-instance throughput degrades proportionally; this is how the
 * consolidation experiments (paper section 5.5) oversubscribe a machine.
 */
class Machine
{
  public:
    struct Config
    {
        FrequencyScale scale = FrequencyScale::xeonE5530();
        PowerModelParams power{};
        /** Hardware contexts (paper machines are dual quad-core). */
        std::size_t cores = 8;
        /**
         * Relative per-cycle throughput of this machine class against
         * the fleet's reference class (> 0). Models microarchitectural
         * asymmetry beyond the clock — a big.LITTLE little core at the
         * same frequency retires fewer instructions per cycle, so its
         * speed factor is < 1. Work cycles stretch by 1/speed_factor;
         * power accounting is untouched (the power tables already
         * describe the class). 1.0 (the default) reproduces the
         * historical behaviour bit for bit.
         */
        double speed_factor = 1.0;
    };

    Machine() : Machine(Config{}) {}
    explicit Machine(const Config &config);

    /** Current virtual time in seconds. */
    double now() const { return clock_.now(); }

    /** Current P-state (0 = fastest). */
    std::size_t pstate() const { return pstate_; }

    /** Current clock frequency in Hz. */
    double frequencyHz() const { return freq_hz_; }

    /** The machine's frequency table. */
    const FrequencyScale &scale() const { return scale_; }

    /** The machine's power model. */
    const PowerModel &powerModel() const { return power_; }

    /** Number of hardware contexts. */
    std::size_t cores() const { return cores_; }

    /** Relative per-cycle throughput of this machine class (> 0). */
    double speedFactor() const { return speed_factor_; }

    /**
     * Effective cycle-retirement rate at the current P-state:
     * frequency scaled by the class speed factor. The rate work
     * actually proceeds at (before core sharing).
     */
    double effectiveHz() const { return frequencyHz() * speed_factor_; }

    /**
     * Set the P-state (DVFS actuation, like cpufrequtils).
     * Takes effect for all subsequent work. Requests faster than the
     * current frequency cap (see setPStateCap) are clamped to the cap.
     */
    void setPState(std::size_t state);

    /**
     * Cap the machine's frequency at that of P-state @p state: the
     * effective P-state index is always >= @p state from now on. The
     * current P-state is lowered (slowed) immediately if it violates
     * the new cap, and later setPState() requests clamp against it.
     * Pass 0 to remove the cap. This is the per-machine actuation
     * surface of a cluster-wide power arbiter (fleet::PowerArbiter),
     * settable mid-run between control epochs.
     */
    void setPStateCap(std::size_t state);

    /** Current frequency cap as a P-state index (0 = uncapped). */
    std::size_t pstateCap() const { return pstate_cap_; }

    /**
     * Execute @p cycles of work on one context and advance virtual time.
     * The work proceeds at the current context share and is accounted at
     * the current machine-wide utilisation.
     *
     * @param cycles Work to retire, in clock cycles (>= 0, not NaN).
     * @return Virtual seconds consumed.
     */
    double execute(double cycles);

    /**
     * Set the fraction of one context's throughput available to the
     * running work (1.0 = dedicated core; 0.5 = core shared two ways).
     * Oversubscribed machines in the consolidation experiments give each
     * instance a share of cores/instances. Must be in (0, 1] (NaN is
     * rejected).
     */
    void setShare(double share);

    /** Current context share. */
    double share() const { return share_; }

    /**
     * Set the machine-wide utilisation used for power accounting while
     * work executes, in [0, 1] (larger values clamp to 1); a negative
     * value restores the default (one busy core out of cores()). NaN is
     * rejected.
     */
    void setUtilization(double utilization);

    /** Current accounting utilisation (negative = automatic). */
    double utilization() const { return utilization_; }

    /** Sit idle for @p dt (>= 0, not NaN) virtual seconds, drawing
     *  idle power. */
    void idleFor(double dt);

    /** Sit idle until absolute virtual time @p t (no-op if past). */
    void idleUntil(double t);

    /** Total energy consumed so far, joules. */
    double energyJoules() const { return energy_j_; }

    /** Mean power between virtual times @p t0 and @p t1, watts. */
    double meanWatts(double t0, double t1) const;

    /** Mean power over the whole history, watts. */
    double meanWatts() const { return meanWatts(0.0, now()); }

    /**
     * The full constant-power segment log (WattsUp-style trace source).
     * Adjacent segments at equal power are coalesced.
     */
    const std::vector<PowerSegment> &powerTrace() const { return trace_; }

  private:
    /** Record @p dt seconds at @p watts, integrating energy. */
    void account(double dt, double watts);

    /** Recompute the cached frequency and busy/idle power draw from
     *  the P-state and utilisation; every setter of either calls it. */
    void refreshPower();

    FrequencyScale scale_;
    PowerModel power_;
    std::size_t cores_;
    double speed_factor_ = 1.0;
    std::size_t pstate_ = 0;
    std::size_t pstate_cap_ = 0;
    double share_ = 1.0;
    double utilization_ = -1.0;
    double freq_hz_ = 0.0;    //!< scale_.frequencyHz(pstate_).
    double busy_watts_ = 0.0; //!< Power while executing work.
    double idle_watts_ = 0.0; //!< Power while idle.
    VirtualClock clock_;
    double energy_j_ = 0.0;
    std::vector<PowerSegment> trace_;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_MACHINE_H

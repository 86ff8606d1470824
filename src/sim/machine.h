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
#include <stdexcept>
#include <vector>

#include "sim/frequency.h"
#include "sim/power_model.h"
#include "sim/virtual_clock.h"

namespace powerdial::sim {

/**
 * A single simulated server with DVFS, a power model, and an energy
 * account.
 *
 * The machine supports a configurable number of hardware contexts
 * (cores). When more runnable instances than cores share the machine the
 * per-instance throughput degrades proportionally; this is how the
 * consolidation experiments (paper section 5.5) oversubscribe a machine.
 *
 * Energy is the one power account: every busy or idle span adds its
 * draw times its length, and the paper's mean power (the mean of 1 s
 * WattsUp samples, section 5.1) is that energy over elapsed time.
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

    /**
     * Become exactly a freshly constructed Machine(@p config) — the
     * constructor runs this — while keeping the storage of the
     * frequency table and the per-P-state power table.
     * Throws std::invalid_argument, leaving the machine unchanged, for
     * zero cores, a speed factor that is not finite and > 0 (NaN
     * included) or invalid power parameters.
     */
    void reset(const Config &config);

    /**
     * Become exactly a freshly constructed machine of the current
     * class: reset(config) with the configuration this machine was
     * last built or reset from, minus the per-P-state work. A fleet
     * tenant slot rewinds its machine this way when its next job lands
     * on a machine of the same class.
     */
    void reset();

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
     * The effective rate as a fraction of the nominal one,
     * min(1, effectiveHz() / scale().maxHz()): how much of a unit's
     * service time is spent below P-state-0 speed. Cached with the
     * watts, since it changes only with the P-state.
     */
    double speedRatio() const { return speed_ratio_; }

    /**
     * Model power at P-state @p state and @p utilization, watts:
     * powerModel().watts(scale().frequencyHz(state), utilization),
     * read from a per-P-state table built when the machine takes its
     * class. Throws std::out_of_range for a bad P-state.
     */
    double
    wattsAt(std::size_t state, double utilization) const
    {
        return power_.wattsFor(dyn_frac_.at(state), utilization);
    }

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
    double
    execute(double cycles)
    {
        if (!(cycles >= 0.0))
            throw std::invalid_argument("Machine: negative or NaN work");
        if (cycles == 0.0)
            return 0.0;
        // Multiplying by a speed factor of exactly 1.0 is an IEEE
        // identity, so the default class retires work bit-identically
        // to the pre-heterogeneity machine.
        const double dt = cycles / (effectiveHz() * share_);
        account(dt, busy_watts_);
        return dt;
    }

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
    void
    idleFor(double dt)
    {
        if (!(dt >= 0.0))
            throw std::invalid_argument(
                "Machine: negative or NaN idle time");
        account(dt, idle_watts_);
    }

    /** Sit idle until absolute virtual time @p t (no-op if past). */
    void idleUntil(double t);

    /** Total energy consumed so far, joules. */
    double energyJoules() const { return energy_j_; }

    /** Mean power over the whole history, watts: energy over elapsed
     *  time (0 before any time has passed). */
    double
    meanWatts() const
    {
        return now() > 0.0 ? energyJoules() / now() : 0.0;
    }

  private:
    /** Spend @p dt seconds at @p watts, integrating energy. */
    void
    account(double dt, double watts)
    {
        if (dt <= 0.0)
            return;
        clock_.advance(dt);
        energy_j_ += watts * dt;
    }

    /** Recompute the cached frequency, speed ratio and busy/idle power
     *  draw from the P-state and utilisation; every setter of either
     *  calls it. */
    void refreshPower();

    FrequencyScale scale_;
    PowerModel power_;
    std::size_t cores_ = 0;
    double speed_factor_ = 1.0;
    std::size_t pstate_ = 0;
    std::size_t pstate_cap_ = 0;
    double share_ = 1.0;
    double utilization_ = -1.0;
    /** power_.dynamicFraction of each P-state's frequency. */
    std::vector<double> dyn_frac_;
    double freq_hz_ = 0.0;     //!< scale_.frequencyHz(pstate_).
    double speed_ratio_ = 1.0; //!< See speedRatio().
    double busy_watts_ = 0.0;  //!< Power while executing work.
    double idle_watts_ = 0.0;  //!< Power while idle.
    VirtualClock clock_;
    double energy_j_ = 0.0;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_MACHINE_H

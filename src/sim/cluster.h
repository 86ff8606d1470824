/**
 * @file
 * A small cluster of simulated machines with a proportional load balancer.
 *
 * Models the provisioning experiments of paper section 5.5: a baseline
 * system of four 8-core machines (peak load 32 concurrent application
 * instances) versus a consolidated system with fewer machines in which
 * PowerDial trades QoS for throughput. "This system load balances all
 * jobs proportionally across available machines. Machines without jobs
 * are idle but not powered off."
 *
 * Clusters may be heterogeneous: provisioned from a MachineCatalog and
 * a class mix, every machine carries the frequency/power tables, core
 * count, and speed factor of its class, and the per-machine accessors
 * (classOf, configOf, the two-argument loadOf) expose the class-aware
 * view the fleet scheduler and power arbiter place and budget against.
 * A cluster built from the legacy homogeneous constructor — or from a
 * one-class catalog — behaves bit-identically to the pre-catalog code.
 */
#ifndef POWERDIAL_SIM_CLUSTER_H
#define POWERDIAL_SIM_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/machine.h"
#include "sim/machine_catalog.h"

namespace powerdial::sim {

/** Steady-state operating point of one machine under a given load. */
struct MachineLoad
{
    std::size_t instances;    //!< Concurrent application instances.
    double utilization;       //!< min(1, instances / cores).
    double per_instance_share;//!< Core share each instance receives.
    double required_speedup;  //!< Knob speedup needed to hold baseline
                              //!< per-instance performance (>= 1).
};

/**
 * A cluster with proportional (least-loaded) job placement —
 * homogeneous by default, heterogeneous when provisioned from a
 * machine catalog.
 */
class Cluster
{
  public:
    /**
     * Homogeneous cluster.
     * @param machines Number of machines.
     * @param config   Per-machine configuration (all identical).
     */
    Cluster(std::size_t machines, const Machine::Config &config);

    /**
     * Heterogeneous cluster: @p class_mix[c] machines of catalog class
     * c, in class order (class 0's machines take the lowest indices).
     * The mix must be parallel to the catalog and provision at least
     * one machine. A one-class mix is exactly the homogeneous cluster
     * of that class's configuration.
     */
    Cluster(const MachineCatalog &catalog,
            const std::vector<std::size_t> &class_mix);

    std::size_t size() const { return machines_.size(); }

    Machine &machine(std::size_t i) { return machines_.at(i); }
    const Machine &machine(std::size_t i) const { return machines_.at(i); }

    /** The catalog the fleet was provisioned from (one-class for the
     *  homogeneous constructor). */
    const MachineCatalog &catalog() const { return catalog_; }

    /** Catalog class index of machine @p i. */
    std::size_t classOf(std::size_t i) const { return class_of_.at(i); }

    /** The class configuration machine @p i was provisioned with. */
    const Machine::Config &configOf(std::size_t i) const
    {
        return catalog_.at(class_of_.at(i)).config;
    }

    /**
     * True when the fleet mixes two or more catalog classes — the
     * signal class-aware code paths branch on, so single-class fleets
     * keep the legacy arithmetic (and its exact rounding) untouched.
     */
    bool heterogeneous() const { return heterogeneous_; }

    /**
     * The fastest effective cycle rate any provisioned machine reaches
     * at P-state 0 (maxHz * speed_factor, maximised over machines) —
     * the reference speed placement and admission price slowdowns
     * against. Equals maxHz * 1.0 (an IEEE identity) on a legacy
     * homogeneous cluster.
     */
    double referenceEffectiveHz() const
    {
        return reference_effective_hz_;
    }

    /** Hardware contexts of machine @p i. */
    std::size_t coresOf(std::size_t i) const
    {
        return configOf(i).cores;
    }

    /** Total hardware contexts across the cluster. */
    std::size_t totalCores() const;

    /** Peak concurrent instances the cluster is provisioned for. */
    std::size_t peakInstances() const { return totalCores(); }

    /**
     * Proportionally balance @p instances across the machines
     * (least-loaded placement; equivalent to an even split — placing
     * the instances one at a time on the currently least-loaded
     * machine, lowest index first on ties, yields exactly this
     * distribution; tests/test_cluster.cc pins the equivalence).
     * Class-blind: the analytic consolidation experiments it models
     * assume a homogeneous fleet.
     * @return per-machine instance counts, size() entries.
     */
    std::vector<std::size_t> balance(std::size_t instances) const;

    // ----- Dynamic placement state (fleet serving) -------------------
    //
    // balance() computes an analytic steady-state split; the fleet
    // scheduler instead places and releases jobs incrementally as they
    // arrive and complete. The cluster tracks that occupancy here so
    // placement policies and the power arbiter can read a live view.
    //
    // An exact occupancy index rides along: one bitmap over machines
    // per active-instance count (bit i of count c's bitmap is set iff
    // machine i hosts exactly c instances), each count's population,
    // and the smallest count any machine holds. place, release and
    // clearPlacement keep it in step with the counts, so the
    // least-loaded machine is the first set bit of one bitmap instead
    // of a scan over every machine.

    /** Record one more active instance on machine @p i. */
    void place(std::size_t i);

    /** Record the completion of an instance on machine @p i. */
    void release(std::size_t i);

    /** Active instances currently placed on machine @p i. */
    std::size_t activeOn(std::size_t i) const { return active_.at(i); }

    /** The fewest active instances any machine hosts. */
    std::size_t minActive() const { return min_active_; }

    /**
     * The least-loaded machine: the lowest index among the machines
     * hosting minActive() instances — exactly what a linear scan for
     * the first strict minimum returns.
     */
    std::size_t leastLoaded() const;

    /** Active instances across the cluster. */
    std::size_t totalActive() const;

    /** Per-machine active instance counts (size() entries). */
    const std::vector<std::size_t> &activeCounts() const
    {
        return active_;
    }

    /** Reset the dynamic placement state to an empty cluster. */
    void clearPlacement();

    /**
     * Total cluster power at the *current* dynamic state: every
     * machine accounted at its own frequency (which reflects any
     * per-machine P-state cap the arbiter installed) and at the
     * utilisation implied by its active instance count. Idle machines
     * draw idle power (not powered off), like steadyStateWatts().
     */
    double dynamicWatts() const;

    /**
     * The steady-state operating point of the *class-0* machine with
     * @p instances — the homogeneous analytic view the provisioning
     * experiments use. Class-aware callers (scheduler, arbiter,
     * admission) use the two-argument overload instead.
     */
    MachineLoad loadOf(std::size_t instances) const;

    /**
     * The steady-state operating point of machine @p machine hosting
     * @p instances, against that machine's own class core count.
     * Identical to the one-argument form on a homogeneous cluster.
     */
    MachineLoad loadOf(std::size_t machine, std::size_t instances) const;

    /**
     * Steady-state total cluster power at a given placement, watts.
     * Machines without jobs idle at idle power (not powered off).
     * Each machine is accounted with its own class power model and
     * frequency table; a P-state deeper than a class provides clamps
     * to that class's slowest state.
     *
     * @param placement Per-machine instance counts (from balance()).
     * @param pstate    Common P-state of all machines.
     */
    double steadyStateWatts(const std::vector<std::size_t> &placement,
                            std::size_t pstate = 0) const;

    /**
     * Convenience: steady-state power at @p instances concurrent
     * instances after proportional balancing.
     */
    double
    steadyStateWatts(std::size_t instances, std::size_t pstate = 0) const
    {
        return steadyStateWatts(balance(instances), pstate);
    }

    /**
     * Largest per-machine required speedup across a placement —
     * what PowerDial must deliver for the consolidated system to hold
     * baseline per-instance performance.
     */
    double maxRequiredSpeedup(const std::vector<std::size_t> &placement)
        const;

    /**
     * Smallest per-instance core share across a placement — the share
     * each instance receives on the most-loaded machine (the inverse
     * of maxRequiredSpeedup). This is the share a consolidation
     * replay pins on its simulated machine (core::replayConsolidation).
     */
    double minInstanceShare(const std::vector<std::size_t> &placement)
        const;

  private:
    /** Shared constructor tail: provision machines_ from class_of_. */
    void provision();

    static MachineLoad loadForCores(std::size_t cores,
                                    std::size_t instances);

    /** Move machine @p i between the index's count-@p from and
     *  count-@p to bitmaps. */
    void moveOccupancy(std::size_t i, std::size_t from, std::size_t to);

    std::vector<Machine> machines_;
    MachineCatalog catalog_;
    std::vector<std::size_t> class_of_;
    bool heterogeneous_ = false;
    double reference_effective_hz_ = 0.0;
    std::vector<std::size_t> active_;

    // The occupancy index (see "Dynamic placement state" above):
    // count c's bitmap is the words_ words starting at
    // occupancy_bits_[c * words_].
    std::size_t words_ = 0;
    std::vector<std::uint64_t> occupancy_bits_;
    std::vector<std::size_t> population_; //!< Machines per count.
    std::size_t min_active_ = 0;
};

} // namespace powerdial::sim

#endif // POWERDIAL_SIM_CLUSTER_H

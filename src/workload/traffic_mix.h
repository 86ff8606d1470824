/**
 * @file
 * Production-shaped traffic composition for fleet serving.
 *
 * A single Poisson stream over a spiky utilisation trace (arrivals.h)
 * exercises a fleet's mean behaviour; production traffic is shaped:
 * tenant popularity is Zipf-skewed (a few tenants dominate), request
 * volume follows a diurnal curve, and flash crowds superimpose sudden
 * demand that can exceed the provisioned peak. The TrafficMix composer
 * builds that stream deterministically: per step it superimposes the
 * diurnal/spiky base level (workload::loadLevelAt) with any flash
 * crowds covering the step — deliberately NOT clamped at 1.0, offered
 * load is open-loop — draws the step's arrival count from the
 * counter-derived Poisson substream (poissonArrivalAt), and assigns
 * each arrival a tenant profile by Zipf popularity rank. Every step
 * uses its own RNG substream, so traffic windows regenerate
 * independently, exactly like the arrival and load-trace generators.
 */
#ifndef POWERDIAL_WORKLOAD_TRAFFIC_MIX_H
#define POWERDIAL_WORKLOAD_TRAFFIC_MIX_H

#include <cstdint>
#include <vector>

#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/zipf.h"

namespace powerdial::workload {

/**
 * One offered job with its serving metadata: which tenant input it
 * serves, the tenant's priority class (0 = highest; lower-priority
 * classes are shed first under overload), and its completion deadline
 * relative to arrival (0 = no deadline, never shed for SLO reasons).
 */
/** Sentinel OfferedJob::offer: the offer was never numbered (ad-hoc
 *  construction); engines assign a serial id at admission time. */
inline constexpr std::size_t kUnnumberedOffer =
    static_cast<std::size_t>(-1);

struct OfferedJob
{
    std::size_t tenant = 0;    //!< Application input index served.
    std::size_t job_class = 0; //!< Priority class, 0 = highest.
    double deadline_s = 0.0;   //!< Relative deadline (0 = none).
    /**
     * Schedule-wide offer id (arrival order across all steps), the
     * identity a shed job keeps when it never becomes a fleet job —
     * what lets a trace answer "what happened to arrival N". Last
     * member on purpose: existing three-field aggregate initializers
     * keep compiling and leave the offer unnumbered.
     */
    std::size_t offer = kUnnumberedOffer;
};

/**
 * Why a job's priority class and relative deadline cannot be served,
 * or nullptr when they can: the deadline must be finite and
 * non-negative (0 = none), and the class below SIZE_MAX (per-class
 * tallies are sized class + 1).
 */
const char *badJobTerms(std::size_t job_class, double deadline_s);

/**
 * One tenant of the mix, listed in popularity order: profile 0 is the
 * most popular (Zipf rank 0). Jobs minted from a profile carry its
 * class and deadline.
 */
struct TenantProfile
{
    std::size_t input = 0;     //!< Application input index.
    std::size_t job_class = 0; //!< Priority class, 0 = highest.
    double deadline_s = 0.0;   //!< Relative deadline (0 = none).
};

/**
 * A flash crowd: @p boost extra offered-load level across steps
 * [start, start + length). Superimposed on the base curve without
 * clamping, so a crowd atop a busy period pushes the composed level
 * past 1.0 — more demand than the fleet is provisioned for, the
 * overload the admission-control experiments need.
 */
struct FlashCrowd
{
    std::size_t start = 0;
    std::size_t length = 0;
    double boost = 0.0;
};

/** Traffic-mix composition parameters. */
struct TrafficMixParams
{
    std::size_t steps = 200; //!< Schedule length, epochs.
    /**
     * Base offered-load curve: utilisation, jitter, intermittent
     * spikes, and (via diurnal_amplitude) the day/night swell.
     * trace.steps is ignored; the mix uses steps above.
     */
    LoadTraceParams trace{};
    std::vector<FlashCrowd> flash_crowds;
    /** Mean arrivals per step at composed level 1.0. */
    double peak_rate = 8.0;
    /** Zipf skew of tenant popularity (1.0 = classic). */
    double zipf_skew = 1.0;
    /** Seed for the arrival-count and tenant-assignment substreams
     *  (independent of trace.seed). */
    std::uint64_t seed = 0x7af1c0de;
};

/** A composed traffic schedule. */
struct TrafficMix
{
    /** Composed offered-load level per step (may exceed 1.0). */
    std::vector<double> levels;
    /** The jobs offered at each step, in arrival order. */
    std::vector<std::vector<OfferedJob>> offers;
    /** Jobs offered over the whole schedule. */
    std::size_t total_offered = 0;
};

/**
 * The composed offered-load level of step @p t alone: base curve plus
 * every flash crowd covering t, clamped below at 0 but NOT above —
 * offered load is open-loop and may exceed the provisioned peak.
 */
double trafficLevelAt(const TrafficMixParams &params, std::size_t t);

/**
 * Compose the full schedule: per step, the composed level, a Poisson
 * arrival count at mean level * peak_rate, and a Zipf-popularity
 * tenant assignment for each arrival. Deterministic in (params,
 * profiles) and per-step stable: any window of the schedule can be
 * regenerated independently of the horizon.
 *
 * @param profiles Tenant profiles in popularity order (size >= 1).
 * @throws std::invalid_argument for a profile badJobTerms rejects.
 */
TrafficMix makeTrafficMix(const TrafficMixParams &params,
                          const std::vector<TenantProfile> &profiles);

} // namespace powerdial::workload

#endif // POWERDIAL_WORKLOAD_TRAFFIC_MIX_H

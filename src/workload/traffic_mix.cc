#include "workload/traffic_mix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace powerdial::workload {

const char *
badJobTerms(std::size_t job_class, double deadline_s)
{
    if (!std::isfinite(deadline_s) || deadline_s < 0.0)
        return "deadline must be finite and non-negative";
    if (job_class == SIZE_MAX)
        return "job class must be below SIZE_MAX";
    return nullptr;
}

double
trafficLevelAt(const TrafficMixParams &params, std::size_t t)
{
    double level = loadLevelAt(params.trace, t);
    for (const FlashCrowd &crowd : params.flash_crowds)
        if (t >= crowd.start && t - crowd.start < crowd.length)
            level += crowd.boost;
    return std::max(level, 0.0);
}

TrafficMix
makeTrafficMix(const TrafficMixParams &params,
               const std::vector<TenantProfile> &profiles)
{
    for (const TenantProfile &profile : profiles)
        if (const char *why =
                badJobTerms(profile.job_class, profile.deadline_s))
            throw std::invalid_argument(
                std::string("makeTrafficMix: tenant profile ") + why);
    TrafficMix mix;
    mix.levels.reserve(params.steps);
    mix.offers.reserve(params.steps);
    const PoissonArrivalParams arrivals{params.peak_rate, params.seed};
    const ZipfSampler zipf(std::max<std::size_t>(profiles.size(), 1),
                           params.zipf_skew);
    for (std::size_t t = 0; t < params.steps; ++t) {
        const double level = trafficLevelAt(params, t);
        const std::size_t count = poissonArrivalAt(arrivals, t, level);
        // Tenant assignment draws come after the step's arrival-count
        // draws on a distinct substream (seed offset by the stride's
        // complement), so count and assignment never alias.
        Rng rng(params.seed + 0x61c8864680b583ebULL * (t + 1));
        std::vector<OfferedJob> offered;
        offered.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            OfferedJob job;
            if (!profiles.empty()) {
                const TenantProfile &profile = profiles[zipf.sample(rng)];
                job = {profile.input, profile.job_class,
                       profile.deadline_s};
            }
            // Number the offer by schedule-wide arrival order (after
            // the assignment above, which resets the field).
            job.offer = mix.total_offered + offered.size();
            offered.push_back(job);
        }
        mix.total_offered += offered.size();
        mix.levels.push_back(level);
        mix.offers.push_back(std::move(offered));
    }
    return mix;
}

} // namespace powerdial::workload

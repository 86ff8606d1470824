/**
 * @file
 * Open-loop job arrival processes for fleet serving.
 *
 * The load traces in load_trace.h describe *utilisation* — a closed
 * quantity relative to provisioned capacity. A serving fleet instead
 * sees an open-loop request stream: jobs arrive whether or not the
 * cluster has capacity for them. This generator turns a utilisation
 * trace into such a stream by drawing the number of job arrivals in
 * each time step from a Poisson distribution whose mean follows the
 * trace, the standard open-loop model of datacenter request traffic.
 */
#ifndef POWERDIAL_WORKLOAD_ARRIVALS_H
#define POWERDIAL_WORKLOAD_ARRIVALS_H

#include <cstdint>
#include <vector>

#include "workload/rng.h"

namespace powerdial::workload {

/** Poisson arrival-process parameters. */
struct PoissonArrivalParams
{
    /**
     * Mean arrivals per step when the driving trace is at full
     * utilisation (1.0); a trace level u yields mean u * peak_rate.
     */
    double peak_rate = 8.0;
    std::uint64_t seed = 0xa2214a10ULL;
};

/**
 * Draw per-step arrival counts N_t ~ Poisson(trace[t] * peak_rate).
 * Fully deterministic in (trace, params), and *per-step stable*: each
 * step draws from its own counter-derived RNG substream, so the count
 * at step t depends only on (seed, t, trace[t]). Extending the horizon
 * never perturbs earlier arrivals, and a window of the trace generated
 * on its own (via @p first_step) matches the same window of the full
 * generation — the random-access property the event-driven fleet
 * engine's arrival events rely on.
 *
 * @param first_step Global step index of trace[0]; pass w to generate
 *        the window starting at step w of a longer trace.
 */
std::vector<std::size_t>
makePoissonArrivals(const std::vector<double> &trace,
                    const PoissonArrivalParams &params,
                    std::size_t first_step = 0);

/**
 * The arrival count of global step @p step alone, at trace level
 * @p level — the per-step substream makePoissonArrivals() is built
 * from, exposed for random access.
 */
std::size_t poissonArrivalAt(const PoissonArrivalParams &params,
                             std::size_t step, double level);

/**
 * One Poisson deviate with mean @p lambda >= 0: Knuth's exact method
 * up to lambda = 700, the rounded normal approximation N(lambda,
 * lambda) above it (where Knuth's exp(-lambda) underflows and the
 * approximation error is far below the distribution's own spread).
 * Throws std::invalid_argument for a negative, NaN or infinite mean,
 * and for a mean whose normal draw does not fit a size_t (>= 2^64).
 */
std::size_t poissonDeviate(Rng &rng, double lambda);

} // namespace powerdial::workload

#endif // POWERDIAL_WORKLOAD_ARRIVALS_H

/**
 * @file
 * The benchmark's workloads and what one measured operation yields.
 *
 * A workload builds its inputs from the seed in setUp(), then offers a
 * fixed list of operations; one pass runs each of them once. An
 * operation is one fleet serve (fleet-scale, fleet-slo) or one
 * application's identify + calibrate + deploy (calibrate). Every
 * operation is deterministic, so every pass must reproduce the first
 * pass's digests exactly.
 */
#ifndef POWERDIAL_PERFBENCH_WORKLOADS_H
#define POWERDIAL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/server.h"
#include "tracer.h"

namespace perfbench {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/** What one operation served and how well, in simulated terms. */
struct OpResult
{
    std::uint64_t digest = kFnvBasis; //!< Fingerprint of every output.
    std::size_t offered = 0;    //!< Jobs offered to the fleet.
    std::size_t served = 0;     //!< Jobs admitted and completed.
    std::size_t slo_met = 0;    //!< Served within their latency limit.
    /** Latency over the job's nominal (uncontended baseline) time. */
    std::vector<double> slowdowns;
    double qos_loss_sum = 0.0;  //!< Summed per-job QoS loss.
    double energy_sum_j = 0.0;  //!< Summed per-job energy.
    // Where simulated latency went (summed over jobs).
    double latency_sum_s = 0.0;
    double queue_sum_s = 0.0;
    double deficit_sum_s = 0.0;
    double pause_sum_s = 0.0;
    std::size_t beats = 0;         //!< Tenant heartbeats.
    std::size_t lease_updates = 0; //!< Lease terms tenants applied.
    std::size_t arbitration_rounds = 0; //!< Counted when probed.
    std::size_t calibration_runs = 0;   //!< (combination, input) runs.
    std::vector<std::string> errors;    //!< Failed output checks.
};

/** How an operation is run. */
struct RunContext
{
    std::size_t threads = 1;       //!< Fleet tenant-session workers.
    Tracer *tracer = nullptr;      //!< Non-null in the traced run.
    std::size_t parent = kNoSpan;  //!< Span that caused the operation.
    std::size_t op = 0;            //!< Operation id for spans.
    /** Check that per-machine budgets never exceed the cluster cap. */
    bool check_budgets = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from @p seed (timed as the set-up). */
    virtual void setUp(std::uint64_t seed, const RunContext &context) = 0;

    /** Operations in one pass. */
    virtual std::size_t operations() const = 0;

    /** Run operation @p index. */
    virtual OpResult run(std::size_t index, const RunContext &context) = 0;
};

std::unique_ptr<Workload> makeFleetScale();
std::unique_ptr<Workload> makeFleetSlo();
std::unique_ptr<Workload> makeCalibrate();

// Shared by the workload implementations.

/** 64-bit FNV-1a over raw bytes, chained through @p hash. */
std::uint64_t fnv(std::uint64_t hash, const void *data, std::size_t size);

template <class T>
std::uint64_t
fnvValue(std::uint64_t hash, const T &value)
{
    return fnv(hash, &value, sizeof value);
}

/** SplitMix64: independent sub-seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** One fleet serve: the calibrated app, the fleet, and its traffic. */
struct ServeSpec
{
    const powerdial::core::App *app = nullptr;
    const powerdial::core::KnobTable *table = nullptr;
    const powerdial::core::ResponseModel *model = nullptr;
    powerdial::fleet::ServerOptions options;
    std::vector<std::size_t> arrivals;
    std::vector<std::vector<powerdial::workload::OfferedJob>> offers;
    std::vector<double> nominal_s;   //!< Per input index.
    std::vector<std::size_t> units;  //!< Per input index.
};

/**
 * Serve @p spec's offers (or, when empty, its count-based arrivals) on
 * a fresh fleet::Server and score the report into @p out: checks
 * conservation, per-job completeness (beats == the tenant input's
 * units), latency-breakdown closure, percentile order, and, when asked,
 * budgets against the cap. Jobs without a deadline meet their SLO when
 * latency <= 3x their nominal time.
 */
void serveAndScore(const ServeSpec &spec, const RunContext &context,
                   OpResult &out);

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_WORKLOADS_H

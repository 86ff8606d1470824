/**
 * @file
 * Fleet quickstart: serve an open-loop request stream with many
 * PowerDial-controlled sessions sharing one cluster power budget.
 *
 *   1. Identify + calibrate an application (as in quickstart.cpp).
 *   2. Synthesise a spiky load trace and Poisson job arrivals.
 *   3. Serve it on a consolidated cluster: a scheduler places each
 *      job (shedding overload past the per-machine queue bound), a
 *      power arbiter re-splits the cluster cap into per-machine DVFS
 *      caps every epoch — reaching jobs already in flight through
 *      their arbitration leases, since epochs here are half a job's
 *      duration — and every tenant session's observer events fold
 *      into its job's record, which the report aggregates into
 *      fleet-wide series.
 *
 * Build & run:  ./build/examples/example_fleet_server
 */
#include <algorithm>
#include <cstdio>

#include "apps/swaptions/swaptions_app.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "fleet/server.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"

using namespace powerdial;

int
main()
{
    // 1. The application and its calibrated response model.
    apps::swaptions::SwaptionsConfig config;
    config.inputs = 4;
    config.swaptions_per_input = 60;
    apps::swaptions::SwaptionsApp app(config);
    auto ident = core::identifyKnobs(app);
    if (!ident.analysis.accepted)
        return 1;
    core::CalibrationOptions copt;
    copt.threads = 0;
    const auto cal = core::calibrate(app, app.trainingInputs(), copt);

    // 2. The offered load: intermittent spikes over ~25% utilisation,
    //    as an open-loop Poisson request stream (jobs per epoch).
    workload::LoadTraceParams trace;
    trace.steps = 24;
    trace.spike_probability = 0.08;
    workload::PoissonArrivalParams poisson;
    poisson.peak_rate = 10.0;
    const auto arrivals = workload::makePoissonArrivals(
        workload::makeLoadTrace(trace), poisson);

    // 3. A consolidated two-machine fleet under a 360 W cluster cap,
    //    split by the QoS-feedback arbiter each epoch. threads = 0
    //    fans tenant sessions over all hardware contexts; the report
    //    is bit-identical at any thread count.
    fleet::ServerOptions options;
    options.machines = 2;
    options.threads = 0;
    options.arbiter.cluster_cap_watts = 360.0;
    options.arbiter.policy = fleet::ArbiterPolicy::QosFeedback;
    // Half-a-job epochs: tenants span epoch boundaries and adopt each
    // re-arbitrated lease mid-run; a 12-deep per-machine run queue
    // sheds (and counts) overload instead of queueing without bound.
    options.epoch_seconds = 0.5 * cal.model.baselineSeconds();
    options.queue_depth = 12;
    fleet::Server server(app, ident.table, cal.model, options);
    const auto report = server.serve(arrivals);

    std::printf("served %zu jobs (%zu shed) over %zu epochs on %zu "
                "machines\n", report.total_jobs, report.total_shed,
                report.epochs.size(), options.machines);
    std::printf("fleet power %.1f W mean; heart rate %.1f beats/s "
                "mean\n", report.mean_watts, report.mean_fleet_rate);
    std::printf("job latency p50 %.3f s, p95 %.3f s, p99 %.3f s; "
                "mean QoS loss %.2f%%\n", report.p50_latency_s,
                report.p95_latency_s, report.p99_latency_s,
                100.0 * report.mean_qos_loss);
    for (const auto &tenant : report.tenants)
        std::printf("  tenant (input %zu): %zu jobs, QoS loss "
                    "%.2f%%, mean latency %.3f s\n", tenant.tenant,
                    tenant.jobs, 100.0 * tenant.mean_qos_loss,
                    tenant.mean_latency_s);
    std::size_t cross_epoch = 0;
    std::size_t max_updates = 0;
    for (const auto &job : report.jobs) {
        if (job.lease_updates > 1)
            ++cross_epoch;
        max_updates = std::max(max_updates, job.lease_updates);
    }
    std::printf("%zu of %zu jobs adopted a re-arbitrated lease "
                "mid-run (max %zu lease updates for one job)\n",
                cross_epoch, report.jobs.size(), max_updates);
    return 0;
}

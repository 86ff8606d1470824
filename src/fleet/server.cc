#include "fleet/server.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/fanout.h"
#include "fleet/event_engine.h"
#include "fleet/tenant.h"

namespace powerdial::fleet {

using detail::Tenant;

Server::Server(const core::App &app, const core::KnobTable &table,
               const core::ResponseModel &model, ServerOptions options)
    : app_(&app), table_(&table), model_(&model),
      options_(std::move(options))
{
    if (options_.catalog.empty()) {
        if (options_.machines == 0)
            throw std::invalid_argument(
                "Server: need at least one machine");
        if (!options_.class_mix.empty())
            throw std::invalid_argument(
                "Server: class_mix needs a machine catalog");
    } else {
        if (options_.class_mix.size() != options_.catalog.size())
            throw std::invalid_argument(
                "Server: class_mix must be parallel to the catalog");
        std::size_t provisioned = 0;
        for (const std::size_t count : options_.class_mix)
            provisioned += count;
        if (provisioned == 0)
            throw std::invalid_argument(
                "Server: class_mix provisions no machines");
    }
    if (options_.tenants.empty())
        options_.tenants = app.productionInputs();
    if (options_.tenants.empty())
        throw std::invalid_argument("Server: no tenant inputs");
    if (options_.event.sample_stride == 0)
        throw std::invalid_argument(
            "Server: event sample_stride must be >= 1");
    if (options_.event.quantum_seconds < 0.0)
        throw std::invalid_argument(
            "Server: event quantum must be >= 0");
    if (options_.event.epoch_compat &&
        (options_.event.sample_stride != 1 ||
         options_.event.quantum_seconds != 0.0))
        throw std::invalid_argument(
            "Server: epoch_compat fixes the quantum to one epoch and "
            "the sample stride to 1");
}

FleetReport
Server::serve(const std::vector<std::size_t> &arrivals)
{
    // The legacy count-based schedule: every offered job is
    // metadata-free (round-robin tenant, class 0, no deadline), so
    // the serve below reproduces the historical behaviour exactly.
    std::vector<std::vector<workload::OfferedJob>> offers(
        arrivals.size());
    std::size_t next_offer = 0;
    for (std::size_t e = 0; e < arrivals.size(); ++e) {
        offers[e].assign(arrivals[e],
                         workload::OfferedJob{kRoundRobinTenant, 0, 0.0});
        for (workload::OfferedJob &job : offers[e])
            job.offer = next_offer++;
    }
    return serve(offers);
}

FleetReport
Server::serve(const std::vector<std::vector<workload::OfferedJob>> &offers)
{
    if (options_.engine == EngineMode::Event)
        return serveEventDriven(*app_, *table_, *model_, options_,
                                offers);

    sim::Cluster cluster = detail::makeCluster(options_);
    Scheduler scheduler(
        cluster, SchedulerOptions{options_.placement,
                                  options_.queue_depth,
                                  options_.admission, model_});
    PowerArbiter arbiter(options_.arbiter);

    const double epoch_s = options_.epoch_seconds > 0.0
        ? options_.epoch_seconds
        : model_->baselineSeconds();
    if (epoch_s <= 0.0)
        throw std::invalid_argument("Server: epoch duration must be > 0");

    // One fan-out engine for the whole serve; tenant epoch slices are
    // the only parallel section, so the hub shards one-to-one with
    // its workers.
    core::FanoutEngine engine(options_.threads);
    MetricsHub hub(engine.workers());
    if (options_.trace != nullptr)
        options_.trace->beginServe(engine.workers());
    FleetTracer tracer(options_.trace);
    detail::TenantPool pool(options_, *app_, *table_, *model_, hub);

    std::vector<double> qos_feedback(cluster.size(), 0.0);
    std::vector<std::unique_ptr<Tenant>> active; // In job order.

    FleetReport report;
    report.epochs.reserve(offers.size());
    std::size_t next_job = 0;
    std::size_t next_offer = 0;

    // Advance every active tenant to its current slice deadline
    // (+inf for the final drain).
    const auto runSlices = [&]() {
        engine.run(active.size(),
                   [&](std::size_t i, std::size_t worker) {
                       detail::runSlice(*active[i], worker);
                   });
    };

    for (std::size_t e = 0; e < offers.size(); ++e) {
        EpochStats stats;
        stats.epoch = e;

        // Top of epoch: tenants that completed during the previous
        // epoch's slice release their machine slot now, feeding their
        // observed-vs-predicted latency to the admission policy, and
        // return to the pool.
        std::size_t kept = 0;
        for (auto &tenant : active) {
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                scheduler.noteCompletion(record.latency_s,
                                         record.predicted_s);
                scheduler.release(tenant->machine_index);
                ++stats.completed;
                pool.release(std::move(tenant));
            } else {
                active[kept++] = std::move(tenant);
            }
        }
        active.resize(kept);

        // Admission: serial and deterministic, one arrival at a time.
        // The admission policy decides who runs and who is shed.
        tracer.at(static_cast<double>(e) * epoch_s);
        const std::size_t shed_before = scheduler.shedCount();
        const auto placements = detail::admitOffers(
            scheduler, offers[e], next_job, next_offer, tracer);
        stats.arrivals = placements.size();
        stats.shed = scheduler.shedCount() - shed_before;
        report.total_shed += stats.shed;

        // Each admitted job runs on a pooled tenant, built (cloned)
        // only when the pool is empty.
        for (const auto &[admission, offer] : placements)
            active.push_back(pool.acquire(cluster, admission, *offer,
                                          next_job++, e,
                                          static_cast<double>(e) *
                                              epoch_s));

        // Arbitration reads the post-placement occupancy; the new
        // terms land in every in-flight tenant's lease — including
        // tenants admitted epochs ago — and their gates apply them at
        // the next beat. The scheduler sees the round too, as lease
        // context for the next epoch's admission decisions.
        const ArbitrationDecision decision =
            arbiter.arbitrate(cluster, qos_feedback);
        scheduler.noteArbitration(decision);
        const std::size_t generation = e + 1;
        stats.lease_generation = generation;
        if (options_.arbitration_probe)
            options_.arbitration_probe(ArbitrationSample{
                static_cast<double>(e) * epoch_s, generation, decision});
        tracer.arbitration(generation, decision);
        for (auto &tenant : active) {
            detail::writeLease(cluster, *tenant, generation, e,
                               decision, tracer);
            tenant->slice_deadline_s =
                static_cast<double>(e - tenant->arrival_epoch + 1) *
                epoch_s;
        }

        // Tenant epoch slices: the only parallel section.
        runSlices();

        // Serial accounting in job order. QoS feedback to the arbiter
        // comes from jobs that finished this epoch; machines with no
        // finisher keep their last-known loss, so the signal persists
        // across idle gaps rather than flickering to zero.
        std::vector<double> machine_qos(cluster.size(), 0.0);
        std::vector<std::size_t> machine_jobs(cluster.size(), 0);
        double qos_sum = 0.0;
        std::size_t finished = 0;
        for (const auto &tenant : active) {
            // Fleet heart rate = beats actually delivered during this
            // epoch's slices over the epoch length, so a cross-epoch
            // tenant contributes each beat to exactly one epoch.
            const std::size_t beats = tenant->probe->record().beats;
            stats.fleet_rate +=
                static_cast<double>(beats - tenant->beats_reported) /
                epoch_s;
            tenant->beats_reported = beats;
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                machine_qos[tenant->machine_index] += record.qos_loss;
                ++machine_jobs[tenant->machine_index];
                qos_sum += record.qos_loss;
                ++finished;
            }
        }
        for (std::size_t m = 0; m < cluster.size(); ++m)
            if (machine_jobs[m] > 0)
                qos_feedback[m] = machine_qos[m] /
                    static_cast<double>(machine_jobs[m]);

        stats.active = cluster.totalActive();
        stats.watts = cluster.dynamicWatts();
        stats.mean_qos_loss = finished == 0
            ? 0.0
            : qos_sum / static_cast<double>(finished);
        stats.max_pause_ratio = *std::max_element(
            decision.pause_ratio.begin(), decision.pause_ratio.end());
        report.epochs.push_back(stats);
    }

    // Past the horizon: in-flight tenants run to completion under
    // their final lease terms (no further arbitration rounds). Every
    // tenant still held here was never released inside the horizon,
    // so the conservation invariant reads
    //   total_jobs == sum(epochs.completed) + drained_jobs.
    report.drained_jobs = active.size();
    for (auto &tenant : active)
        tenant->slice_deadline_s =
            std::numeric_limits<double>::infinity();
    runSlices();
    active.clear();

    report.total_jobs = next_job;
    report.shed_by_machine = scheduler.shedByMachine();
    report.shed_by_class = scheduler.shedByClass();
    detail::finalizeReport(report, hub.drain(), cluster);
    return report;
}

} // namespace powerdial::fleet

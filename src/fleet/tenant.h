/**
 * @file
 * Tenant bookkeeping shared by the two fleet engines.
 *
 * The epoch loop (server.cc) and the discrete-event engine
 * (event_engine.cc) must construct tenants — and summarise finished
 * runs — through *identical* code paths, or their reports could drift
 * apart in ways the differential tests would then chase through two
 * divergent copies. This header is that single path: the recyclable
 * Tenant slot and its per-serve pool, the lease gate that wires a
 * tenant's lease into its session, the slice step, and the report
 * finalisation that turns drained job records into fleet aggregates.
 */
#ifndef POWERDIAL_FLEET_TENANT_H
#define POWERDIAL_FLEET_TENANT_H

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fanout.h"
#include "fleet/observability.h"
#include "fleet/server.h"

namespace powerdial::fleet::detail {

/**
 * Provision the serve's cluster the way both engines must: from the
 * catalog and class mix when a catalog is configured, else the legacy
 * homogeneous fleet of `machines` copies of `machine`.
 */
inline sim::Cluster
makeCluster(const ServerOptions &options)
{
    if (!options.catalog.empty())
        return sim::Cluster(options.catalog, options.class_mix);
    return sim::Cluster(options.machines, options.machine);
}

/**
 * One tenant slot. Built once per slot: a private application clone,
 * its rebound knob table, and the session that drives them, with the
 * lease gate and the metrics and trace probes attached. Reset for
 * every job by assignJob: the job's identity, its simulated machine,
 * lease, slice bookkeeping, and probe contents. A finished tenant goes
 * back to its serve's TenantPool and serves a later job, so a serve
 * clones the application once per peak concurrent job, not per job.
 * A tenant keeps one heap address for the whole serve — only its
 * owning pointer moves between the active list and the pool — so the
 * session's pointers into the clone, table, machine, and probes (and
 * the gate's pointer back into the tenant) stay valid across jobs.
 */
struct Tenant
{
    // Per job: assignJob resets every field in this block.
    std::size_t job = 0;
    std::size_t input = 0;
    std::size_t machine_index = 0;
    std::size_t arrival_epoch = 0;
    double arrival_time_s = 0.0; //!< Fleet virtual time at admission
                                 //!< (event engine; the epoch loop
                                 //!< derives times from arrival_epoch).
    sim::Machine machine;
    ArbitrationLease lease;
    std::size_t applied_generation = 0; //!< Gate-side: last applied.
    double slice_deadline_s = 0.0;      //!< Tenant-local slice end.
    std::size_t beats_reported = 0;     //!< Beats already attributed
                                        //!< to earlier epochs' rates.
    std::optional<MetricsHub::Probe> probe;
    /** Structured trace stream of this job (present when the serve
     *  has a TraceSink attached). */
    std::optional<obs::TraceProbe> trace;
    bool started = false;
    bool done = false;

    // Per slot: built once by makeTenant.
    std::unique_ptr<core::App> app;
    core::KnobTable table;
    std::optional<core::Session> session;
};

/**
 * The tenant's beat gate: the lease re-read, then the lease-driven
 * duty-cycle pause, after @p caller's gate when one is set. The
 * re-read applies changed terms within one beat of an arbiter rewrite
 * and reports the applied generation to the metrics probe; the pause
 * reads the ratio in force at that beat, so a retuned lease already
 * paces the next beat.
 */
inline core::BeatGate
makeLeaseGate(Tenant &tenant, core::BeatGate caller)
{
    Tenant *t = &tenant;
    return core::composeGates(
        std::move(caller), [t](core::BeatGateContext &ctx) {
            const ArbitrationLease &lease = t->lease;
            if (t->applied_generation != lease.generation) {
                ctx.machine.setPStateCap(lease.pstate_cap);
                ctx.machine.setShare(lease.share);
                ctx.machine.setUtilization(lease.utilization);
                t->applied_generation = lease.generation;
                t->probe->noteLease(lease.generation);
            }
            if (lease.pause_ratio > 0.0)
                ctx.pause_per_busy += lease.pause_ratio;
        });
}

/**
 * Build one tenant slot the way both engines must: a clone of @p app
 * with a rebindKnobTable() copy of @p table, and a session gated by
 * makeLeaseGate (after the caller's gate) and observed by the metrics
 * probe, then by the trace probe when the serve traces. The slot
 * serves no job until assignJob.
 */
inline std::unique_ptr<Tenant>
makeTenant(const ServerOptions &options, const core::App &app,
           const core::KnobTable &table,
           const core::ResponseModel &model, MetricsHub &hub)
{
    auto tenant = std::make_unique<Tenant>();
    Tenant &t = *tenant;
    t.app = app.clone();
    t.table = core::rebindKnobTable(table, *t.app);
    t.probe.emplace(hub.probe(0, JobRecord{}));
    if (options.trace != nullptr)
        t.trace.emplace(*options.trace, obs::TraceProbe::Identity{});
    core::SessionOptions session_options = options.session;
    session_options.withGate(makeLeaseGate(t, options.session.gate));
    t.session.emplace(*t.app, t.table, model,
                      std::move(session_options));
    t.session->observe(*t.probe);
    if (t.trace)
        t.session->observe(*t.trace);
    return tenant;
}

/**
 * Assign one admitted job to tenant @p t, fresh or reused alike:
 * resets every per-job field. The metrics probe is seeded from the
 * job's identity and offered metadata. An offer with the
 * kRoundRobinTenant sentinel resolves its input by the legacy
 * round-robin-on-job-id rule. The job's private machine is built from
 * @p host_config — the *class* configuration of the machine the job
 * was placed on (cluster.configOf(machine_index)), so a job landing on
 * a little node simulates little-node frequency, power, and speed
 * tables, not the fleet default's.
 */
inline void
assignJob(Tenant &t, const ServerOptions &options, MetricsHub &hub,
          const sim::Machine::Config &host_config, std::size_t job,
          std::size_t machine_index, std::size_t arrival_epoch,
          double arrival_time_s, const workload::OfferedJob &offer,
          double predicted_s)
{
    t.job = job;
    t.input = offer.tenant == kRoundRobinTenant
        ? options.tenants[job % options.tenants.size()]
        : offer.tenant;
    t.machine_index = machine_index;
    t.arrival_epoch = arrival_epoch;
    t.arrival_time_s = arrival_time_s;
    t.machine = sim::Machine(host_config);
    t.lease = ArbitrationLease{};
    t.applied_generation = 0;
    t.slice_deadline_s = 0.0;
    t.beats_reported = 0;

    JobRecord seed;
    seed.job = t.job;
    seed.tenant = t.input;
    seed.epoch = arrival_epoch;
    seed.machine = t.machine_index;
    seed.job_class = offer.job_class;
    seed.deadline_s = offer.deadline_s;
    seed.predicted_s = predicted_s;
    *t.probe = hub.probe(0, seed);
    if (t.trace)
        *t.trace = obs::TraceProbe(
            *options.trace,
            obs::TraceProbe::Identity{t.job, t.input, t.machine_index,
                                      offer.job_class, arrival_time_s});
    t.started = false;
    t.done = false;
}

/**
 * Advance tenant @p t to its slice deadline on pool worker @p worker —
 * the slice both engines fan out. The first slice starts the run; the
 * slice that completes it commits the job's record on the worker
 * actually running it.
 */
inline void
runSlice(Tenant &t, std::size_t worker)
{
    if (t.done)
        return; // Awaiting release.
    if (t.trace)
        t.trace->beginSlice(worker);
    if (!t.started) {
        t.session->start(t.input, t.machine);
        t.started = true;
    }
    if (t.session->advanceUntil(t.slice_deadline_s).has_value()) {
        t.done = true;
        t.probe->finishOn(worker, t.machine);
    }
}

/**
 * One serve's idle tenants. Admission takes a tenant from the pool,
 * building one only when the pool is empty, and the engines return a
 * tenant here once its finished job is released.
 */
class TenantPool
{
  public:
    /** All references must outlive the pool. */
    TenantPool(const ServerOptions &options, const core::App &app,
               const core::KnobTable &table,
               const core::ResponseModel &model, MetricsHub &hub)
        : options_(options), app_(app), table_(table), model_(model),
          hub_(hub)
    {
    }

    /**
     * A tenant assigned (see assignJob) to fleet job @p job, admitted
     * as @p admission of @p offer on @p cluster at @p arrival_epoch /
     * @p arrival_time_s.
     */
    std::unique_ptr<Tenant>
    acquire(const sim::Cluster &cluster, const Admission &admission,
            const workload::OfferedJob &offer, std::size_t job,
            std::size_t arrival_epoch, double arrival_time_s)
    {
        std::unique_ptr<Tenant> tenant;
        if (idle_.empty()) {
            tenant = makeTenant(options_, app_, table_, model_, hub_);
        } else {
            tenant = std::move(idle_.back());
            idle_.pop_back();
        }
        assignJob(*tenant, options_, hub_,
                  cluster.configOf(admission.machine), job,
                  admission.machine, arrival_epoch, arrival_time_s,
                  offer, admission.predicted_s);
        return tenant;
    }

    /** Return a tenant whose job has been released. */
    void
    release(std::unique_ptr<Tenant> tenant)
    {
        idle_.push_back(std::move(tenant));
    }

  private:
    const ServerOptions &options_;
    const core::App &app_;
    const core::KnobTable &table_;
    const core::ResponseModel &model_;
    MetricsHub &hub_;
    std::vector<std::unique_ptr<Tenant>> idle_;
};

/**
 * Serial admission of one batch of offered jobs, the way both engines
 * must run it: every offer goes through Scheduler::tryAdmit in arrival
 * order, and each decision is attributed through the tracer —
 * per-candidate placement costs (computed against the pre-placement
 * occupancy the policy actually ranked), then the admit (with the
 * prospective fleet job id) or shed record. Offers the composer never
 * numbered get a serial id from @p next_offer; numbered offers keep
 * theirs (@p next_offer still advances, staying a pure arrival
 * counter either way).
 *
 * @return The admissions, paired with their offers, in arrival order.
 */
inline std::vector<std::pair<Admission, const workload::OfferedJob *>>
admitOffers(Scheduler &scheduler,
            const std::vector<workload::OfferedJob> &offered,
            std::size_t next_job, std::size_t &next_offer,
            FleetTracer &tracer)
{
    std::vector<std::pair<Admission, const workload::OfferedJob *>>
        placements;
    placements.reserve(offered.size());
    for (const workload::OfferedJob &job : offered) {
        const std::size_t offer =
            job.offer != workload::kUnnumberedOffer ? job.offer
                                                    : next_offer;
        ++next_offer;
        if (tracer.wantsPlacement())
            tracer.placement(offer, scheduler.policy().candidateCosts(
                                        scheduler.cluster()));
        const auto admission = scheduler.tryAdmit(job);
        if (admission.has_value()) {
            placements.emplace_back(*admission, &job);
            tracer.admit(offer, job, scheduler.lastVerdict(),
                         next_job + placements.size() - 1);
        } else {
            tracer.shed(offer, job, scheduler.lastVerdict());
        }
    }
    return placements;
}

/**
 * Install one arbitration round's terms in a tenant's lease — the one
 * lease-rewrite path both engines share — and attribute the rewrite
 * through the tracer.
 */
inline void
writeLease(const sim::Cluster &cluster, Tenant &tenant,
           std::size_t generation, std::size_t epoch,
           const ArbitrationDecision &decision, FleetTracer &tracer)
{
    const auto load = cluster.loadOf(
        tenant.machine_index, cluster.activeOn(tenant.machine_index));
    tenant.lease.generation = generation;
    tenant.lease.epoch = epoch;
    tenant.lease.share = load.per_instance_share;
    tenant.lease.utilization = load.utilization;
    tenant.lease.pstate_cap = decision.pstate_cap[tenant.machine_index];
    tenant.lease.pause_ratio =
        decision.pause_ratio[tenant.machine_index];
    tracer.lease(tenant.job, tenant.input, tenant.machine_index,
                 tenant.lease);
}

/**
 * Fold the drained job records and accumulated epoch rows into the
 * report's aggregates: epoch means, overall QoS mean, latency
 * percentiles, and the per-tenant / per-class / per-machine tables
 * (sorted by id; machine rows cover the whole cluster). All four
 * percentile paths go through the one latencyPercentiles helper. Both
 * engines call this with report.epochs / total counters already set.
 */
inline void
finalizeReport(FleetReport &report, std::vector<JobRecord> jobs,
               const sim::Cluster &cluster)
{
    report.jobs = std::move(jobs);

    double watts_sum = 0.0, rate_sum = 0.0;
    for (const EpochStats &stats : report.epochs) {
        watts_sum += stats.watts;
        rate_sum += stats.fleet_rate;
    }
    if (!report.epochs.empty()) {
        const double n = static_cast<double>(report.epochs.size());
        report.mean_watts = watts_sum / n;
        report.mean_fleet_rate = rate_sum / n;
    }

    std::vector<double> latencies;
    latencies.reserve(report.jobs.size());
    double qos_sum = 0.0;
    std::map<std::size_t, TenantStats> tenants;
    std::map<std::size_t, std::vector<double>> tenant_latencies;
    std::vector<std::vector<double>> machine_latencies(cluster.size());
    for (const JobRecord &job : report.jobs) {
        latencies.push_back(job.latency_s);
        qos_sum += job.qos_loss;
        TenantStats &tenant = tenants[job.tenant];
        tenant.tenant = job.tenant;
        ++tenant.jobs;
        tenant.mean_qos_loss += job.qos_loss;
        tenant.mean_latency_s += job.latency_s;
        tenant_latencies[job.tenant].push_back(job.latency_s);
        if (job.machine < machine_latencies.size())
            machine_latencies[job.machine].push_back(job.latency_s);
    }
    if (!report.jobs.empty())
        report.mean_qos_loss =
            qos_sum / static_cast<double>(report.jobs.size());
    const LatencyPercentiles overall = latencyPercentiles(latencies);
    report.p50_latency_s = overall.p50;
    report.p95_latency_s = overall.p95;
    report.p99_latency_s = overall.p99;
    for (auto &[id, tenant] : tenants) {
        const double job_count = static_cast<double>(tenant.jobs);
        tenant.mean_qos_loss /= job_count;
        tenant.mean_latency_s /= job_count;
        const LatencyPercentiles tail =
            latencyPercentiles(tenant_latencies[id]);
        tenant.p50_latency_s = tail.p50;
        tenant.p95_latency_s = tail.p95;
        tenant.p99_latency_s = tail.p99;
        report.tenants.push_back(tenant);
    }

    // Per-priority-class scoreboard: latency percentiles over the
    // served jobs of each class, plus that class's shed count — every
    // class seen in either gets a row, so a class that was shed into
    // oblivion still shows up (jobs 0, shed > 0).
    std::map<std::size_t, std::vector<double>> class_latencies;
    for (const JobRecord &job : report.jobs)
        class_latencies[job.job_class].push_back(job.latency_s);
    for (std::size_t c = 0; c < report.shed_by_class.size(); ++c)
        if (report.shed_by_class[c] > 0)
            class_latencies.try_emplace(c);
    for (auto &[c, values] : class_latencies) {
        ClassStats row;
        row.job_class = c;
        row.jobs = values.size();
        row.shed = c < report.shed_by_class.size()
            ? report.shed_by_class[c]
            : 0;
        const LatencyPercentiles tail = latencyPercentiles(values);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.classes.push_back(row);
    }

    // Per-machine scoreboard: one row per cluster machine (idle
    // machines included, with zero counts), tagged with the catalog
    // class heterogeneous-fleet reports group by.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        MachineStats row;
        row.machine = i;
        row.machine_class = cluster.classOf(i);
        row.jobs = machine_latencies[i].size();
        row.shed = i < report.shed_by_machine.size()
            ? report.shed_by_machine[i]
            : 0;
        const LatencyPercentiles tail =
            latencyPercentiles(machine_latencies[i]);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.machines.push_back(row);
    }
}

} // namespace powerdial::fleet::detail

#endif // POWERDIAL_FLEET_TENANT_H

/**
 * @file
 * Tenant bookkeeping for the fleet serve (event_engine.cc).
 *
 * Both schedules of the serve — epoch and event — run their jobs on
 * the pieces here: the recyclable Tenant slot and its per-serve pool,
 * the lease gate that wires the host machine's lease into a tenant's
 * session, and the slice step that fills the job's record from the
 * session's result.
 * They live in a header so tests can drive a tenant directly.
 */
#ifndef POWERDIAL_FLEET_TENANT_H
#define POWERDIAL_FLEET_TENANT_H

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fanout.h"
#include "fleet/server.h"
#include "obs/trace_sink.h"

namespace powerdial::fleet::detail {

/**
 * One tenant slot. Built once per slot: a private application clone,
 * its rebound knob table, and the session that drives them, with the
 * lease gate attached (and the trace probe, when the serve traces).
 * Reset for every job by assignJob: the job's record, its simulated
 * machine, the host lease it reads, slice bookkeeping, and trace
 * stream. Everything a slice writes is in the slot, so slices of
 * different tenants can run concurrently; the serve takes the job's
 * record and trace stream when it releases the tenant. A finished
 * tenant goes back to its serve's TenantPool and serves a later job,
 * so a serve clones the application once per peak concurrent job, not
 * per job.
 * A tenant keeps one heap address for the whole serve — only its
 * owning pointer moves between the active list and the pool — so the
 * session's pointers into the clone, table, machine, and trace probe
 * (and the gate's pointer back into the tenant) stay valid across
 * jobs.
 */
struct Tenant
{
    /** A slot whose machine already has @p host_config's class: the
     *  class of its first job's host (see assignJob). */
    explicit Tenant(const sim::Machine::Config &host_config)
        : machine(host_config), machine_class(&host_config)
    {
    }

    // The lease gate and the session hold the slot's address.
    Tenant(const Tenant &) = delete;
    Tenant &operator=(const Tenant &) = delete;

    // Per job: assignJob resets every field in this block.
    /**
     * The job's identity (job id, input stream, host machine, arrival
     * epoch, offered metadata) and, as it runs, its outcome: the lease
     * gate tags the lease terms it applies, every slice keeps beats
     * current, and the completing slice copies in the run's result.
     */
    JobRecord record;
    double arrival_time_s = 0.0; //!< Fleet virtual time at admission
                                 //!< (event engine; the epoch loop
                                 //!< derives times from record.epoch).
    sim::Machine machine;
    /**
     * The lease of the job's host machine. The serve keeps one lease
     * per machine and rewrites it each arbitration round for every
     * tenant the machine hosts; it must outlive the job.
     */
    const ArbitrationLease *lease = nullptr;
    double slice_deadline_s = 0.0;  //!< Tenant-local slice end.
    std::size_t beats_reported = 0; //!< Beats already attributed to
                                    //!< earlier epochs' rates.
    /** Structured trace stream of this job (present when the serve
     *  has a TraceSink attached). */
    std::optional<obs::TraceProbe> trace;
    bool done = false;

    // Per slot: built once by makeTenant.
    std::unique_ptr<core::App> app;
    core::KnobTable table;
    std::optional<core::Session> session;
    /** The class configuration the machine last took (see
     *  assignJob). */
    const sim::Machine::Config *machine_class;
};

/**
 * The tenant's beat gate: the host lease re-read, then the lease-driven
 * duty-cycle pause, after @p caller's gate when one is set. The
 * re-read applies changed terms within one beat of an arbiter rewrite
 * and tags the job's record with the applied generation (the record's
 * lease_generation is the gate's last-applied generation); the pause
 * reads the ratio in force at that beat, so a retuned lease already
 * paces the next beat.
 */
inline core::BeatGate
makeLeaseGate(Tenant &tenant, core::BeatGate caller)
{
    Tenant *t = &tenant;
    return core::composeGates(
        std::move(caller), [t](core::BeatGateContext &ctx) {
            const ArbitrationLease &lease = *t->lease;
            if (t->record.lease_generation != lease.generation) {
                ctx.machine.setPStateCap(lease.pstate_cap);
                ctx.machine.setShare(lease.share);
                ctx.machine.setUtilization(lease.utilization);
                t->record.lease_generation = lease.generation;
                ++t->record.lease_updates;
            }
            if (lease.pause_ratio > 0.0)
                ctx.pause_per_busy += lease.pause_ratio;
        });
}

/**
 * Build one tenant slot the way both engines must: a clone of @p app
 * with a rebindKnobTable() rebinding of @p table, a machine of
 * @p host_config's class (the class of the host its first job lands
 * on, so that job's assignJob only rewinds it), and a session gated by
 * makeLeaseGate (after the caller's gate). Only a traced serve's
 * sessions have an observer, the trace probe; an untraced session has
 * none, so its beats build no per-beat trace. The slot serves no job
 * until assignJob.
 */
inline std::unique_ptr<Tenant>
makeTenant(const ServerOptions &options, const core::App &app,
           const core::KnobTable &table,
           const core::ResponseModel &model,
           const sim::Machine::Config &host_config)
{
    auto tenant = std::make_unique<Tenant>(host_config);
    Tenant &t = *tenant;
    t.app = app.clone();
    t.table = core::rebindKnobTable(table, *t.app);
    if (options.trace != nullptr)
        t.trace.emplace(*options.trace, obs::TraceProbe::Identity{});
    core::SessionOptions session_options = options.session;
    session_options.withGate(makeLeaseGate(t, options.session.gate));
    t.session.emplace(*t.app, t.table, model,
                      std::move(session_options));
    if (t.trace)
        t.session->observe(*t.trace);
    return tenant;
}

/**
 * Assign one admitted job to tenant @p t, fresh or reused alike:
 * resets every per-job field. The record is seeded from the job's
 * identity and offered metadata; the trace probe must already be
 * flushed, since it restarts empty. An offer with the
 * kRoundRobinTenant sentinel resolves its input by the legacy
 * round-robin-on-job-id rule. The job's private machine is reset in
 * place (sim::Machine::reset, keeping its storage) to @p host_config —
 * the *class* configuration of the machine the job was placed on
 * (cluster.configOf(machine_index)), so a job landing on a little node
 * simulates little-node frequency, power, and speed tables, not the
 * fleet default's. The slot keys the class on @p host_config's
 * address: a job whose class configuration is the one the slot's
 * machine already has only rewinds the machine, with no per-P-state
 * work. @p host_config must therefore stay unchanged while the slot
 * lives, as a cluster's catalog entries do. The job's gate reads
 * @p host_lease, the lease of the machine it was placed on, which must
 * outlive the job.
 */
inline void
assignJob(Tenant &t, const ServerOptions &options,
          const sim::Machine::Config &host_config,
          const ArbitrationLease &host_lease, std::size_t job,
          std::size_t machine_index, std::size_t arrival_epoch,
          double arrival_time_s, const workload::OfferedJob &offer,
          double predicted_s)
{
    JobRecord &r = t.record;
    r = JobRecord{};
    r.job = job;
    r.tenant = offer.tenant == kRoundRobinTenant
        ? options.tenants[job % options.tenants.size()]
        : offer.tenant;
    r.epoch = arrival_epoch;
    r.machine = machine_index;
    r.job_class = offer.job_class;
    r.deadline_s = offer.deadline_s;
    r.predicted_s = predicted_s;
    t.arrival_time_s = arrival_time_s;
    if (t.machine_class == &host_config) {
        t.machine.reset();
    } else {
        t.machine.reset(host_config);
        t.machine_class = &host_config;
    }
    t.lease = &host_lease;
    t.slice_deadline_s = 0.0;
    t.beats_reported = 0;
    if (t.trace)
        *t.trace = obs::TraceProbe(
            *options.trace,
            obs::TraceProbe::Identity{r.job, r.tenant, r.machine,
                                      r.job_class, arrival_time_s});
    t.done = false;
}

/**
 * Advance tenant @p t to its slice deadline — the slice both schedules
 * fan out. The first slice starts the run. Every slice leaves
 * record.beats current, since both schedules read it mid-run for the
 * window heart rate; the slice that completes the run copies the run's
 * result into the record and marks the tenant done.
 */
inline void
runSlice(Tenant &t)
{
    if (t.done)
        return; // Awaiting release.
    if (!t.session->active())
        t.session->start(t.record.tenant, t.machine);
    const auto run = t.session->advanceUntil(t.slice_deadline_s);
    if (!run.has_value()) {
        t.record.beats = t.session->unitsProcessed();
        return;
    }
    JobRecord &r = t.record;
    r.beats = run->beat_count;
    r.latency_s = run->seconds;
    r.qos_loss = run->mean_qos_loss_estimate;
    r.service_s = run->service_s;
    r.queue_share_s = run->queue_share_s;
    r.class_deficit_s = run->class_deficit_s;
    r.pause_s = run->pause_s;
    t.done = true;
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
               const core::ResponseModel &model)
        : options_(options), app_(app), table_(table), model_(model)
    {
    }

    /**
     * A tenant assigned (see assignJob) to fleet job @p job, admitted
     * as @p admission of @p offer on @p cluster at @p arrival_epoch /
     * @p arrival_time_s, reading @p host_lease, the lease of the
     * machine it was placed on.
     */
    std::unique_ptr<Tenant>
    acquire(const sim::Cluster &cluster, const ArbitrationLease &host_lease,
            const Admission &admission, const workload::OfferedJob &offer,
            std::size_t job, std::size_t arrival_epoch,
            double arrival_time_s)
    {
        const sim::Machine::Config &host_config =
            cluster.configOf(admission.machine);
        std::unique_ptr<Tenant> tenant;
        if (idle_.empty()) {
            tenant = makeTenant(options_, app_, table_, model_, host_config);
        } else {
            tenant = std::move(idle_.back());
            idle_.pop_back();
        }
        assignJob(*tenant, options_, host_config, host_lease, job,
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
    std::vector<std::unique_ptr<Tenant>> idle_;
};

} // namespace powerdial::fleet::detail

#endif // POWERDIAL_FLEET_TENANT_H

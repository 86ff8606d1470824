/**
 * @file
 * The fleet serve: one per-serve state that runs either schedule.
 *
 * Server::serve builds an EventServe — the serve's cluster, scheduler,
 * arbiter, fan-out engine, tracer, and tenant pool — and runs the
 * schedule ServerOptions::engine selects:
 *
 *   - EngineMode::Epoch, the synchronous round loop: every epoch
 *     releases finished tenants, admits that epoch's arrivals, runs one
 *     arbitration round, advances every tenant one slice, and closes
 *     one EpochStats row, whether or not anything changed;
 *   - EngineMode::Event, the discrete-event engine: a priority queue of
 *     typed events — job arrivals, beat-quantum expiries, job
 *     completions, lease rewrites (arbitration), trace samples —
 *     ordered by (virtual time, stable sequence id), so execution order
 *     is total and independent of thread count. Arbitration is
 *     triggered by state changes (admissions, completions) rather than
 *     by the epoch clock, which survives only as a periodic event
 *     source (trace samples, and a Quantum tick one epoch apart).
 *
 * Both schedules share admission, arbitration and lease rewrites,
 * tenant release, the per-machine QoS-feedback fold, stats rows, and
 * the drain past the horizon. Tenant advancement runs through
 * core::FanoutEngine — the only parallel section — and a slice writes
 * only its own tenant's state, including the job's record, which the
 * slice fills from the session's result. Every finished job passes
 * through one serial point, its release or the drain past the horizon,
 * which stores its record at its job id and hands its trace stream to
 * the sink, so either report is bit-identical at any thread count.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fanout.h"
#include "fleet/event_queue.h"
#include "fleet/observability.h"
#include "fleet/server.h"
#include "fleet/tenant.h"
#include "sim/virtual_clock.h"

namespace powerdial::fleet {

namespace {

using detail::Tenant;

/**
 * Provision the serve's cluster the way both engines must: from the
 * catalog and class mix when a catalog is configured, else the legacy
 * homogeneous fleet of `machines` copies of `machine`.
 */
sim::Cluster
makeCluster(const ServerOptions &options)
{
    if (!options.catalog.empty())
        return sim::Cluster(options.catalog, options.class_mix);
    return sim::Cluster(options.machines, options.machine);
}

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
std::vector<std::pair<Admission, const workload::OfferedJob *>>
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
 * Install one arbitration round's terms in every machine's lease — the
 * one lease-rewrite path both engines share. Every tenant on a machine
 * reads that machine's lease, so a round costs one rewrite per
 * machine, not per tenant.
 */
void
writeLeases(const sim::Cluster &cluster, std::size_t generation,
            std::size_t epoch, const ArbitrationDecision &decision,
            std::vector<ArbitrationLease> &leases)
{
    for (std::size_t m = 0; m < leases.size(); ++m) {
        const auto load = cluster.loadOf(m, cluster.activeOn(m));
        ArbitrationLease &lease = leases[m];
        lease.generation = generation;
        lease.epoch = epoch;
        lease.share = load.per_instance_share;
        lease.utilization = load.utilization;
        lease.pstate_cap = decision.pstate_cap[m];
        lease.pause_ratio = decision.pause_ratio[m];
    }
}

/**
 * Group @p jobs' latencies by @p key, a dense id below @p groups: a
 * counting sort that keeps job order inside each group. Group g's
 * latencies land in latencies[start[g], start[g + 1]).
 */
template <typename Key>
void
groupLatencies(const std::vector<JobRecord> &jobs, std::size_t groups,
               Key key, std::vector<std::size_t> &start,
               std::vector<double> &latencies)
{
    start.assign(groups + 1, 0);
    for (const JobRecord &job : jobs)
        ++start[key(job) + 1];
    for (std::size_t g = 0; g < groups; ++g)
        start[g + 1] += start[g];
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    latencies.resize(jobs.size());
    for (const JobRecord &job : jobs)
        latencies[next[key(job)]++] = job.latency_s;
}

/**
 * Fold the stored job records and accumulated epoch rows into the
 * report's aggregates: epoch means, overall QoS mean, latency
 * percentiles, and the per-tenant / per-class / per-machine tables
 * (sorted by id; machine rows cover the whole cluster). Every job's
 * tenant is an input index below @p inputs. All four percentile paths
 * go through the one latencyPercentiles helper. Both engines call this
 * with report.jobs, report.epochs and the total counters already set.
 */
void
finalizeReport(FleetReport &report, const sim::Cluster &cluster,
               std::size_t inputs)
{
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
    std::vector<TenantStats> tenants(inputs); // Indexed by input.
    for (const JobRecord &job : report.jobs) {
        latencies.push_back(job.latency_s);
        qos_sum += job.qos_loss;
        TenantStats &tenant = tenants[job.tenant];
        tenant.tenant = job.tenant;
        ++tenant.jobs;
        tenant.mean_qos_loss += job.qos_loss;
        tenant.mean_latency_s += job.latency_s;
    }
    if (!report.jobs.empty())
        report.mean_qos_loss =
            qos_sum / static_cast<double>(report.jobs.size());
    const LatencyPercentiles overall = latencyPercentiles(latencies);
    report.p50_latency_s = overall.p50;
    report.p95_latency_s = overall.p95;
    report.p99_latency_s = overall.p99;

    std::vector<std::size_t> start;
    groupLatencies(
        report.jobs, inputs,
        [](const JobRecord &job) { return job.tenant; }, start,
        latencies);
    for (std::size_t id = 0; id < inputs; ++id) {
        TenantStats &tenant = tenants[id];
        if (tenant.jobs == 0)
            continue;
        const double job_count = static_cast<double>(tenant.jobs);
        tenant.mean_qos_loss /= job_count;
        tenant.mean_latency_s /= job_count;
        const LatencyPercentiles tail = latencyPercentiles(
            latencies.data() + start[id], latencies.data() + start[id + 1]);
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
    groupLatencies(
        report.jobs, cluster.size(),
        [](const JobRecord &job) { return job.machine; }, start,
        latencies);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        MachineStats row;
        row.machine = i;
        row.machine_class = cluster.classOf(i);
        row.jobs = start[i + 1] - start[i];
        row.shed = i < report.shed_by_machine.size()
            ? report.shed_by_machine[i]
            : 0;
        const LatencyPercentiles tail = latencyPercentiles(
            latencies.data() + start[i], latencies.data() + start[i + 1]);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.machines.push_back(row);
    }
}

/**
 * The typed events the engine schedules. Job completions are a hybrid:
 * their *time* cannot be known in advance (only advancing a session
 * discovers it finished), so completions are detected right after each
 * tenant advancement and a Completion event at the current time is the
 * trigger that processes them — unless an earlier same-time handler
 * (an arrival, a sample) already swept them, because releases must
 * settle before admissions and accounting at the same timestamp.
 */
struct Event
{
    enum class Kind {
        Sample,     //!< Stats-row close (window index).
        Arrivals,   //!< The trace offers jobs at epoch e.
        Quantum,    //!< Beat-quantum expiry.
        Completion, //!< Completions discovered at now.
        Arbitrate,  //!< Coalesced lease rewrite at now.
    };
    Kind kind = Kind::Quantum;
    std::size_t index = 0;
};

/**
 * One serve() worth of state. The two schedules differ only in when
 * they release, admit, arbitrate, advance tenants, and close stats
 * rows; everything they do at those points is shared.
 */
class EventServe
{
  public:
    EventServe(const core::App &app, const core::KnobTable &table,
               const core::ResponseModel &model,
               const ServerOptions &options,
               const std::vector<std::vector<workload::OfferedJob>>
                   &offers)
        : options_(options), offers_(offers),
          cluster_(makeCluster(options)),
          scheduler_(cluster_,
                     SchedulerOptions{options.placement,
                                      options.queue_depth,
                                      options.admission, &model}),
          arbiter_(options.arbiter), engine_(options.threads),
          tracer_(options.trace), leases_(cluster_.size()),
          pool_(options, app, table, model), inputs_(app.inputCount()),
          qos_feedback_(cluster_.size(), 0.0),
          machine_qos_(cluster_.size(), 0.0),
          machine_jobs_(cluster_.size(), 0)
    {
        epoch_s_ = options_.epoch_seconds > 0.0
            ? options_.epoch_seconds
            : model.baselineSeconds();
        if (!std::isfinite(epoch_s_) || epoch_s_ <= 0.0)
            throw std::invalid_argument(
                "Server: epoch duration must be > 0");
    }

    FleetReport
    run()
    {
        if (options_.trace != nullptr)
            options_.trace->beginServe();
        std::size_t offered = 0;
        for (const auto &epoch : offers_)
            offered += epoch.size();
        report_.jobs.reserve(offered); // Admitted jobs are a subset.
        if (options_.engine == EngineMode::Epoch)
            runEpochs();
        else
            runEvents();

        // Past the horizon: in-flight tenants run to completion under
        // their final lease terms. Everything still held here was
        // never released inside the horizon, so
        //   total_jobs == sum(completed) + drained_jobs.
        report_.drained_jobs = active_.size();
        for (auto &tenant : active_)
            tenant->slice_deadline_s =
                std::numeric_limits<double>::infinity();
        runSlices();
        for (auto &tenant : active_)
            commitJob(*tenant);
        active_.clear();

        report_.total_jobs = next_job_;
        report_.shed_by_machine = scheduler_.shedByMachine();
        report_.shed_by_class = scheduler_.shedByClass();
        finalizeReport(report_, cluster_, inputs_);
        return std::move(report_);
    }

  private:
    // ------------------------------------------------------------------
    // Epoch mode: per epoch e, the top (release, admit, arbitrate), one
    // slice for every held tenant up to t(e+1), then epoch e's row.
    // ------------------------------------------------------------------
    void
    runEpochs()
    {
        report_.epochs.reserve(offers_.size());
        for (std::size_t e = 0; e < offers_.size(); ++e) {
            epochTop(e);
            runSlices();
            sampleEpoch(e);
        }
    }

    /** Top of epoch e: release, admit, arbitrate, set slice ends. */
    void
    epochTop(std::size_t e)
    {
        // Tenants that completed during the previous epoch's slice
        // release their machine slot now; their QoS loss was folded
        // when that epoch's row closed.
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done)
                releaseTenant(std::move(tenant));
            else
                active_[kept++] = std::move(tenant);
        }
        active_.resize(kept);

        admit(e);
        arbitrate(static_cast<double>(e) * epoch_s_, e);
        for (auto &tenant : active_)
            // Tenant-local, in exactly this float form (the goldens
            // pin it): t(e+1) - arrival_time rounds differently.
            tenant->slice_deadline_s =
                static_cast<double>(e - tenant->record.epoch + 1) *
                epoch_s_;
    }

    /** Close epoch e's row over the still-held tenants. */
    void
    sampleEpoch(std::size_t e)
    {
        // Fleet heart rate = beats delivered during this epoch's
        // slices over the epoch length, so a cross-epoch tenant
        // contributes each beat to exactly one epoch. Jobs that
        // finished this epoch feed their QoS loss back to the arbiter.
        double fleet_rate = 0.0;
        for (const auto &tenant : active_) {
            const std::size_t beats = tenant->record.beats;
            fleet_rate +=
                static_cast<double>(beats - tenant->beats_reported) /
                epoch_s_;
            tenant->beats_reported = beats;
            if (tenant->done)
                noteQos(*tenant);
        }
        commitQos();
        closeWindow(e, fleet_rate);
    }

    // ------------------------------------------------------------------
    // Event mode: arbitration fires on admissions and completions (one
    // coalesced Arbitrate event per timestamp), a Quantum chain one
    // epoch apart bounds how long a completion can go undiscovered
    // while anything is active, and Sample events close one EpochStats
    // row per sample_stride epochs. Epochs with no offered jobs
    // schedule nothing — an idle fleet costs no events at all.
    // ------------------------------------------------------------------
    void
    runEvents()
    {
        const std::size_t n = offers_.size();
        horizon_s_ = static_cast<double>(n) * epoch_s_;
        const std::size_t stride = options_.event.sample_stride;

        for (std::size_t e = 0; e < n; ++e)
            if (!offers_[e].empty())
                queue_.push(static_cast<double>(e) * epoch_s_,
                            Event{Event::Kind::Arrivals, e});
        for (std::size_t w = 0; w * stride < n; ++w) {
            const std::size_t end = std::min((w + 1) * stride, n);
            queue_.push(static_cast<double>(end) * epoch_s_,
                        Event{Event::Kind::Sample, w});
        }
        report_.epochs.reserve((n + stride - 1) / stride);

        while (!queue_.empty()) {
            const auto entry = queue_.pop();
            if (clock_.advanceTo(entry.time_s) &&
                advanceTenantsTo(clock_.now()))
                noteCompletions();
            switch (entry.payload.kind) {
            case Event::Kind::Arrivals:
                // Releases settle before admissions at equal times,
                // like the epoch top.
                processCompletions();
                arrivalsAt(entry.payload.index);
                break;
            case Event::Kind::Quantum:
                quantum_pending_ = false;
                processCompletions();
                if (!active_.empty())
                    scheduleQuantum();
                break;
            case Event::Kind::Completion:
                completion_pending_ = false;
                processCompletions();
                break;
            case Event::Kind::Arbitrate:
                arbitrate_pending_ = false;
                processCompletions();
                arbitrate(clock_.now(), epochOf(clock_.now()));
                break;
            case Event::Kind::Sample:
                processCompletions();
                sampleWindow(entry.payload.index);
                break;
            }
        }
    }

    /** The trace offers offers_[e] at t(e). */
    void
    arrivalsAt(std::size_t e)
    {
        // assignJob stamps arrival_time_s = t(e), which is bitwise
        // clock_.now() here (advanceTo installs the event time
        // exactly).
        if (admit(e) == 0)
            return;
        requestArbitration();
        scheduleQuantum();
    }

    /**
     * Sweep tenants that finished during the latest advancement:
     * attribute their undelivered beats and QoS loss to the open
     * window, release them, and publish the QoS feedback — then ask
     * for a re-price, since occupancy changed. Idempotent; any
     * same-time handler may call it before the Completion event pops,
     * and it returns at once unless noteCompletions found a finished
     * tenant since the last sweep.
     */
    void
    processCompletions()
    {
        if (!unswept_completions_)
            return;
        unswept_completions_ = false;
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                window_beats_ +=
                    tenant->record.beats - tenant->beats_reported;
                noteQos(*tenant);
                releaseTenant(std::move(tenant));
            } else {
                active_[kept++] = std::move(tenant);
            }
        }
        if (kept == active_.size())
            return;
        active_.resize(kept);
        commitQos();
        requestArbitration();
    }

    /** Close stats window @p w covering [w*stride, w*stride+stride). */
    void
    sampleWindow(std::size_t w)
    {
        const std::size_t stride = options_.event.sample_stride;
        const std::size_t start = w * stride;
        const std::size_t end =
            std::min(start + stride, offers_.size());

        for (const auto &tenant : active_) {
            const std::size_t beats = tenant->record.beats;
            window_beats_ += beats - tenant->beats_reported;
            tenant->beats_reported = beats;
        }
        closeWindow(start,
                    static_cast<double>(window_beats_) /
                        (static_cast<double>(end - start) * epoch_s_));
    }

    void
    requestArbitration()
    {
        if (arbitrate_pending_)
            return;
        queue_.push(clock_.now(), Event{Event::Kind::Arbitrate, 0});
        arbitrate_pending_ = true;
    }

    void
    scheduleQuantum()
    {
        if (quantum_pending_)
            return;
        const double next = clock_.now() + epoch_s_;
        if (next > horizon_s_)
            return; // The final Sample already lands at the horizon.
        queue_.push(next, Event{Event::Kind::Quantum, 0});
        quantum_pending_ = true;
    }

    /**
     * Flag newly-discovered completions for the next sweep, with a
     * same-time trigger.
     */
    void
    noteCompletions()
    {
        unswept_completions_ = true;
        if (completion_pending_)
            return;
        queue_.push(clock_.now(), Event{Event::Kind::Completion, 0});
        completion_pending_ = true;
    }

    /**
     * Set every tenant's slice deadline to global time @p t and run
     * the slices. @return Whether a tenant finished its job.
     */
    bool
    advanceTenantsTo(double t)
    {
        for (auto &tenant : active_)
            tenant->slice_deadline_s = t - tenant->arrival_time_s;
        return runSlices();
    }

    std::size_t
    epochOf(double t) const
    {
        const auto e = static_cast<std::size_t>(t / epoch_s_);
        return offers_.empty()
            ? e
            : std::min(e, offers_.size() - 1);
    }

    // ------------------------------------------------------------------
    // Shared by both schedules.
    // ------------------------------------------------------------------

    /**
     * Serial admission of the jobs offered at epoch @p e, with shed
     * accounting into the open window, each admitted job assigned to a
     * tenant from the pool and given a report slot at its job id.
     * @return Jobs actually admitted (appended to active_, in order).
     */
    std::size_t
    admit(std::size_t e)
    {
        tracer_.at(static_cast<double>(e) * epoch_s_);
        const std::size_t shed_before = scheduler_.shedCount();
        const auto placements = admitOffers(
            scheduler_, offers_[e], next_job_, next_offer_, tracer_);
        window_.arrivals += placements.size();
        const std::size_t shed = scheduler_.shedCount() - shed_before;
        window_.shed += shed;
        report_.total_shed += shed;

        for (const auto &[admission, offer] : placements)
            active_.push_back(pool_.acquire(
                cluster_, leases_[admission.machine], admission, *offer,
                next_job_++, e, static_cast<double>(e) * epoch_s_));
        report_.jobs.resize(next_job_); // Filled by commitJob.
        return placements.size();
    }

    /**
     * One arbitration round at virtual time @p t: the arbiter prices
     * the current occupancy and QoS feedback into the serve's reused
     * decision, and every machine's lease takes the new terms under a
     * fresh generation, tagged with epoch @p epoch. Each tenant's gate
     * applies its host's terms at its next beat; a traced serve also
     * records, per held tenant in job order, the terms it will read.
     */
    void
    arbitrate(double t, std::size_t epoch)
    {
        arbiter_.arbitrate(cluster_, qos_feedback_, last_decision_);
        scheduler_.noteArbitration(last_decision_);
        ++generation_;
        if (options_.arbitration_probe)
            options_.arbitration_probe(
                ArbitrationSample{t, generation_, last_decision_});
        tracer_.at(t);
        tracer_.arbitration(generation_, last_decision_);
        writeLeases(cluster_, generation_, epoch, last_decision_,
                    leases_);
        if (tracer_.wantsLeases())
            for (const auto &tenant : active_) {
                const JobRecord &job = tenant->record;
                tracer_.lease(job.job, job.tenant, job.machine,
                              leases_[job.machine]);
            }
    }

    /**
     * Release a finished tenant: commit its job, count it into the
     * open window, feed its observed-vs-predicted latency to the
     * admission policy, free its machine slot, and return it to the
     * pool.
     */
    void
    releaseTenant(std::unique_ptr<Tenant> tenant)
    {
        const JobRecord &record = commitJob(*tenant);
        ++window_.completed;
        scheduler_.noteCompletion(record.latency_s, record.predicted_s);
        scheduler_.release(tenant->record.machine);
        pool_.release(std::move(tenant));
    }

    /**
     * Store a finished tenant's record at its job id, with the energy
     * of the job's machine, and hand its trace stream to the sink —
     * before the pool can reassign the tenant.
     */
    const JobRecord &
    commitJob(Tenant &tenant)
    {
        JobRecord &slot = report_.jobs[tenant.record.job];
        slot = tenant.record;
        slot.energy_j = tenant.machine.energyJoules();
        if (tenant.trace)
            tenant.trace->flush();
        return slot;
    }

    /** Fold a finished tenant's QoS loss into its machine's pending
     *  feedback and the open window's mean. */
    void
    noteQos(const Tenant &tenant)
    {
        const double loss = tenant.record.qos_loss;
        machine_qos_[tenant.record.machine] += loss;
        ++machine_jobs_[tenant.record.machine];
        window_qos_sum_ += loss;
        ++window_finished_;
    }

    /**
     * Publish the folded QoS to the arbiter: every machine with a
     * finisher since the last commit feeds back its finishers' mean
     * loss; machines with none keep their last-known loss, so the
     * signal persists across idle gaps rather than flickering to zero.
     */
    void
    commitQos()
    {
        for (std::size_t m = 0; m < machine_jobs_.size(); ++m) {
            if (machine_jobs_[m] == 0)
                continue;
            qos_feedback_[m] =
                machine_qos_[m] / static_cast<double>(machine_jobs_[m]);
            machine_qos_[m] = 0.0;
            machine_jobs_[m] = 0;
        }
    }

    /**
     * Close the open window as the report row starting at epoch
     * @p epoch, with @p fleet_rate heartbeats per second, and open the
     * next.
     */
    void
    closeWindow(std::size_t epoch, double fleet_rate)
    {
        EpochStats row = window_;
        row.epoch = epoch;
        row.lease_generation = generation_;
        row.fleet_rate = fleet_rate;
        row.active = cluster_.totalActive();
        row.watts = cluster_.dynamicWatts();
        row.mean_qos_loss = window_finished_ == 0
            ? 0.0
            : window_qos_sum_ /
                static_cast<double>(window_finished_);
        row.max_pause_ratio = last_decision_.pause_ratio.empty()
            ? 0.0
            : *std::max_element(last_decision_.pause_ratio.begin(),
                                last_decision_.pause_ratio.end());
        report_.epochs.push_back(row);

        window_ = EpochStats{};
        window_beats_ = 0;
        window_qos_sum_ = 0.0;
        window_finished_ = 0;
    }

    /**
     * Advance every held tenant to its slice deadline through the
     * fan-out engine's fixed-order merge — the only parallel section.
     * A slice writes only its own tenant's state. Only tenants with a
     * slice to run are dispatched: a finished tenant's slice returns
     * at once, and so does a started one's whose machine is already
     * at its deadline (a beat may overrun a slice end), without a
     * change. @return Whether a dispatched tenant finished its job.
     */
    bool
    runSlices()
    {
        slicing_.clear();
        for (const auto &tenant : active_)
            if (!tenant->done &&
                (!tenant->session->active() ||
                 tenant->machine.now() < tenant->slice_deadline_s))
                slicing_.push_back(tenant.get());
        engine_.run(slicing_.size(), [&](std::size_t i, std::size_t) {
            detail::runSlice(*slicing_[i]);
        });
        for (const Tenant *tenant : slicing_)
            if (tenant->done)
                return true;
        return false;
    }

    const ServerOptions &options_;
    const std::vector<std::vector<workload::OfferedJob>> &offers_;

    sim::Cluster cluster_;
    Scheduler scheduler_;
    PowerArbiter arbiter_;
    core::FanoutEngine engine_;
    FleetTracer tracer_;
    /**
     * The lease of each machine, which its tenants' gates read. Sized
     * once, so their pointers into it stay valid, and declared before
     * the pool so it outlives every tenant.
     */
    std::vector<ArbitrationLease> leases_;
    detail::TenantPool pool_;

    const std::size_t inputs_; //!< The app's input count.
    std::vector<std::unique_ptr<Tenant>> active_; // In job order.
    std::vector<Tenant *> slicing_; //!< runSlices' dispatch list.
    FleetReport report_;
    std::size_t next_job_ = 0;
    std::size_t next_offer_ = 0;
    double epoch_s_ = 0.0;

    // Arbitration and its per-machine QoS feedback; noteQos folds into
    // the two scratch vectors, commitQos publishes and clears them.
    std::size_t generation_ = 0;
    ArbitrationDecision last_decision_{};
    std::vector<double> qos_feedback_;
    std::vector<double> machine_qos_;
    std::vector<std::size_t> machine_jobs_;

    // The open stats window: one epoch under the epoch schedule,
    // sample_stride epochs under the event schedule.
    EpochStats window_{};
    std::size_t window_beats_ = 0;
    double window_qos_sum_ = 0.0;
    std::size_t window_finished_ = 0;

    // Event-schedule state.
    sim::VirtualClock clock_;
    EventQueue<Event> queue_;
    double horizon_s_ = 0.0;
    bool quantum_pending_ = false;
    bool arbitrate_pending_ = false;
    bool completion_pending_ = false;
    /** A tenant finished since the last processCompletions sweep. */
    bool unswept_completions_ = false;
};

} // namespace

FleetReport
Server::serve(const std::vector<std::vector<workload::OfferedJob>> &offers)
{
    const std::size_t inputs = app_->inputCount();
    for (const auto &step : offers)
        for (const workload::OfferedJob &job : step) {
            if (job.tenant != kRoundRobinTenant && job.tenant >= inputs)
                throw std::invalid_argument(
                    "Server: offered tenant " +
                    std::to_string(job.tenant) +
                    " is not an input of the app");
            if (const char *why =
                    workload::badJobTerms(job.job_class, job.deadline_s))
                throw std::invalid_argument(
                    std::string("Server: offered job's ") + why);
        }
    return EventServe(*app_, *table_, *model_, options_, offers).run();
}

} // namespace powerdial::fleet

/**
 * @file
 * The fleet serve: one per-serve state that runs either schedule.
 *
 * Server::serve builds an EventServe — the serve's cluster, scheduler,
 * arbiter, fan-out engine, metrics hub, tracer, and tenant pool — and
 * runs the schedule ServerOptions::engine selects:
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
 *     source (trace samples, the default quantum).
 *
 * Both schedules share admission, arbitration and lease rewrites,
 * tenant release, the per-machine QoS-feedback fold, stats rows, and
 * the drain past the horizon. Tenant advancement runs through
 * core::FanoutEngine's fixed-order merge — the only parallel section —
 * so either report is bit-identical at any thread count.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/fanout.h"
#include "fleet/event_queue.h"
#include "fleet/server.h"
#include "fleet/tenant.h"
#include "sim/virtual_clock.h"

namespace powerdial::fleet {

namespace {

using detail::Tenant;

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
          cluster_(detail::makeCluster(options)),
          scheduler_(cluster_,
                     SchedulerOptions{options.placement,
                                      options.queue_depth,
                                      options.admission, &model}),
          arbiter_(options.arbiter), engine_(options.threads),
          hub_(engine_.workers()), tracer_(options.trace),
          pool_(options, app, table, model, hub_),
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
            options_.trace->beginServe(engine_.workers());
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
        active_.clear();

        report_.total_jobs = next_job_;
        report_.shed_by_machine = scheduler_.shedByMachine();
        report_.shed_by_class = scheduler_.shedByClass();
        detail::finalizeReport(report_, hub_.drain(), cluster_);
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
                static_cast<double>(e - tenant->arrival_epoch + 1) *
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
            const std::size_t beats = tenant->probe->record().beats;
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
    // coalesced Arbitrate event per timestamp), a Quantum chain bounds
    // how long a completion can go undiscovered while anything is
    // active, and Sample events close one EpochStats row per
    // sample_stride epochs. Epochs with no offered jobs schedule
    // nothing — an idle fleet costs no events at all.
    // ------------------------------------------------------------------
    void
    runEvents()
    {
        const std::size_t n = offers_.size();
        horizon_s_ = static_cast<double>(n) * epoch_s_;
        quantum_s_ = options_.event.quantum_seconds > 0.0
            ? options_.event.quantum_seconds
            : epoch_s_;
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
            if (clock_.advanceTo(entry.time_s)) {
                advanceTenantsTo(clock_.now());
                noteCompletions();
            }
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
     * same-time handler may call it before the Completion event pops.
     */
    void
    processCompletions()
    {
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                window_beats_ +=
                    tenant->probe->record().beats - tenant->beats_reported;
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
            const std::size_t beats = tenant->probe->record().beats;
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
        const double next = clock_.now() + quantum_s_;
        if (next > horizon_s_)
            return; // The final Sample already lands at the horizon.
        queue_.push(next, Event{Event::Kind::Quantum, 0});
        quantum_pending_ = true;
    }

    /** Flag newly-discovered completions with a same-time trigger. */
    void
    noteCompletions()
    {
        if (completion_pending_)
            return;
        for (const auto &tenant : active_) {
            if (tenant->done) {
                queue_.push(clock_.now(),
                            Event{Event::Kind::Completion, 0});
                completion_pending_ = true;
                return;
            }
        }
    }

    /** Set every tenant's slice deadline to global time @p t. */
    void
    advanceTenantsTo(double t)
    {
        for (auto &tenant : active_)
            tenant->slice_deadline_s = t - tenant->arrival_time_s;
        runSlices();
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
     * tenant from the pool.
     * @return Jobs actually admitted (appended to active_, in order).
     */
    std::size_t
    admit(std::size_t e)
    {
        tracer_.at(static_cast<double>(e) * epoch_s_);
        const std::size_t shed_before = scheduler_.shedCount();
        const auto placements = detail::admitOffers(
            scheduler_, offers_[e], next_job_, next_offer_, tracer_);
        window_.arrivals += placements.size();
        const std::size_t shed = scheduler_.shedCount() - shed_before;
        window_.shed += shed;
        report_.total_shed += shed;

        for (const auto &[admission, offer] : placements)
            active_.push_back(pool_.acquire(
                cluster_, admission, *offer, next_job_++, e,
                static_cast<double>(e) * epoch_s_));
        return placements.size();
    }

    /**
     * One arbitration round at virtual time @p t: the arbiter prices
     * the current occupancy and QoS feedback, and every held tenant's
     * lease takes the new terms under a fresh generation, tagged with
     * epoch @p epoch. Each tenant's gate applies them at its next beat.
     */
    void
    arbitrate(double t, std::size_t epoch)
    {
        last_decision_ = arbiter_.arbitrate(cluster_, qos_feedback_);
        scheduler_.noteArbitration(last_decision_);
        ++generation_;
        if (options_.arbitration_probe)
            options_.arbitration_probe(
                ArbitrationSample{t, generation_, last_decision_});
        tracer_.at(t);
        tracer_.arbitration(generation_, last_decision_);
        for (auto &tenant : active_)
            detail::writeLease(cluster_, *tenant, generation_, epoch,
                               last_decision_, tracer_);
    }

    /**
     * Release a finished tenant: count it into the open window, feed
     * its observed-vs-predicted latency to the admission policy, free
     * its machine slot, and return it to the pool (its record is
     * already committed in the hub).
     */
    void
    releaseTenant(std::unique_ptr<Tenant> tenant)
    {
        const JobRecord &record = tenant->probe->record();
        ++window_.completed;
        scheduler_.noteCompletion(record.latency_s, record.predicted_s);
        scheduler_.release(tenant->machine_index);
        pool_.release(std::move(tenant));
    }

    /** Fold a finished tenant's QoS loss into its machine's pending
     *  feedback and the open window's mean. */
    void
    noteQos(const Tenant &tenant)
    {
        const double loss = tenant.probe->record().qos_loss;
        machine_qos_[tenant.machine_index] += loss;
        ++machine_jobs_[tenant.machine_index];
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
     * fan-out engine's fixed-order merge — the only parallel section;
     * the slice that completes a run commits its record on the worker
     * actually running it.
     */
    void
    runSlices()
    {
        engine_.run(active_.size(),
                    [&](std::size_t i, std::size_t worker) {
                        detail::runSlice(*active_[i], worker);
                    });
    }

    const ServerOptions &options_;
    const std::vector<std::vector<workload::OfferedJob>> &offers_;

    sim::Cluster cluster_;
    Scheduler scheduler_;
    PowerArbiter arbiter_;
    core::FanoutEngine engine_;
    MetricsHub hub_;
    FleetTracer tracer_;
    detail::TenantPool pool_;

    std::vector<std::unique_ptr<Tenant>> active_; // In job order.
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
    double quantum_s_ = 0.0;
    bool quantum_pending_ = false;
    bool arbitrate_pending_ = false;
    bool completion_pending_ = false;
};

} // namespace

FleetReport
Server::serve(const std::vector<std::vector<workload::OfferedJob>> &offers)
{
    return EventServe(*app_, *table_, *model_, options_, offers).run();
}

} // namespace powerdial::fleet

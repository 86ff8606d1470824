#include "fleet/event_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/fanout.h"
#include "fleet/event_queue.h"
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
        EpochTop,   //!< Compat: release + admit + arbitrate, epoch e.
        Sample,     //!< Stats-row close (epoch e / window index).
        Arrivals,   //!< Event mode: the trace offers jobs at epoch e.
        Quantum,    //!< Event mode: beat-quantum expiry.
        Completion, //!< Event mode: completions discovered at now.
        Arbitrate,  //!< Event mode: coalesced lease rewrite at now.
    };
    Kind kind = Kind::Quantum;
    std::size_t index = 0;
};

/**
 * One serve() worth of discrete-event state. Construction mirrors the
 * epoch loop exactly (same cluster, scheduler, arbiter, fan-out
 * engine, and metrics hub); the two run modes differ only in which
 * events they schedule and how tenant slice deadlines are set.
 */
class EventServe
{
  public:
    EventServe(const core::App &app, const core::KnobTable &table,
               const core::ResponseModel &model,
               const ServerOptions &options,
               const std::vector<std::vector<workload::OfferedJob>>
                   &offers)
        : model_(model), options_(options),
          offers_(offers),
          cluster_(detail::makeCluster(options)),
          scheduler_(cluster_,
                     SchedulerOptions{options.placement,
                                      options.queue_depth,
                                      options.admission, &model}),
          arbiter_(options.arbiter), engine_(options.threads),
          hub_(engine_.workers()), tracer_(options.trace),
          pool_(options, app, table, model, hub_),
          qos_feedback_(cluster_.size(), 0.0)
    {
        epoch_s_ = options_.epoch_seconds > 0.0
            ? options_.epoch_seconds
            : model_.baselineSeconds();
        if (epoch_s_ <= 0.0)
            throw std::invalid_argument(
                "Server: epoch duration must be > 0");
    }

    FleetReport
    run()
    {
        if (options_.trace != nullptr)
            options_.trace->beginServe(engine_.workers());
        if (options_.event.epoch_compat)
            runCompat();
        else
            runEvent();

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
    // Epoch-compat mode: the event machinery replaying the legacy
    // schedule. Per epoch e the setup pushes EpochTop(e) at t(e) and
    // Sample(e) at t(e+1); push order makes Sample(e) dispatch before
    // EpochTop(e+1) at their shared timestamp, so accounting for epoch
    // e lands before epoch e+1 releases finished tenants — exactly the
    // legacy statement order. The clock move from t(e) to t(e+1) runs
    // the epoch's tenant slices in between.
    // ------------------------------------------------------------------
    void
    runCompat()
    {
        report_.epochs.reserve(offers_.size());
        for (std::size_t e = 0; e < offers_.size(); ++e) {
            queue_.push(static_cast<double>(e) * epoch_s_,
                        Event{Event::Kind::EpochTop, e});
            queue_.push(static_cast<double>(e + 1) * epoch_s_,
                        Event{Event::Kind::Sample, e});
        }
        while (!queue_.empty()) {
            const auto entry = queue_.pop();
            if (clock_.advanceTo(entry.time_s))
                runSlices(); // To the deadlines EpochTop installed.
            switch (entry.payload.kind) {
            case Event::Kind::EpochTop:
                epochTop(entry.payload.index);
                break;
            case Event::Kind::Sample:
                sampleCompat();
                break;
            default:
                throw std::logic_error(
                    "event engine: unexpected event in compat mode");
            }
        }
    }

    /** Legacy top-of-epoch: release, admit, arbitrate, write leases. */
    void
    epochTop(std::size_t e)
    {
        pending_ = EpochStats{};
        pending_.epoch = e;

        // Tenants that completed during the previous epoch's slice
        // release their machine slot now, feeding their observed-vs-
        // predicted latency to the admission policy, and return to the
        // pool.
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                scheduler_.noteCompletion(record.latency_s,
                                          record.predicted_s);
                scheduler_.release(tenant->machine_index);
                ++pending_.completed;
                pool_.release(std::move(tenant));
            } else {
                active_[kept++] = std::move(tenant);
            }
        }
        active_.resize(kept);

        admit(offers_[e], e, pending_);

        last_decision_ = arbiter_.arbitrate(cluster_, qos_feedback_);
        scheduler_.noteArbitration(last_decision_);
        const std::size_t generation = e + 1;
        pending_.lease_generation = generation;
        if (options_.arbitration_probe)
            options_.arbitration_probe(ArbitrationSample{
                static_cast<double>(e) * epoch_s_, generation,
                last_decision_});
        tracer_.arbitration(generation, last_decision_);
        for (auto &tenant : active_) {
            detail::writeLease(cluster_, *tenant, generation, e,
                               last_decision_, tracer_);
            // The legacy float expression, tenant-local: NOT
            // t(e+1) - arrival_time, which rounds differently.
            tenant->slice_deadline_s =
                static_cast<double>(e - tenant->arrival_epoch + 1) *
                epoch_s_;
        }
    }

    /** Legacy end-of-epoch accounting over the still-held tenants. */
    void
    sampleCompat()
    {
        std::vector<double> machine_qos(cluster_.size(), 0.0);
        std::vector<std::size_t> machine_jobs(cluster_.size(), 0);
        double qos_sum = 0.0;
        std::size_t finished = 0;
        for (const auto &tenant : active_) {
            const std::size_t beats = tenant->probe->record().beats;
            pending_.fleet_rate +=
                static_cast<double>(beats - tenant->beats_reported) /
                epoch_s_;
            tenant->beats_reported = beats;
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                machine_qos[tenant->machine_index] += record.qos_loss;
                ++machine_jobs[tenant->machine_index];
                qos_sum += record.qos_loss;
                ++finished;
            }
        }
        for (std::size_t m = 0; m < cluster_.size(); ++m)
            if (machine_jobs[m] > 0)
                qos_feedback_[m] = machine_qos[m] /
                    static_cast<double>(machine_jobs[m]);

        pending_.active = cluster_.totalActive();
        pending_.watts = cluster_.dynamicWatts();
        pending_.mean_qos_loss = finished == 0
            ? 0.0
            : qos_sum / static_cast<double>(finished);
        pending_.max_pause_ratio = *std::max_element(
            last_decision_.pause_ratio.begin(),
            last_decision_.pause_ratio.end());
        report_.epochs.push_back(pending_);
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
    runEvent()
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
        window_ = EpochStats{};

        while (!queue_.empty()) {
            const auto entry = queue_.pop();
            if (clock_.advanceTo(entry.time_s)) {
                advanceTenantsTo(clock_.now());
                noteCompletions();
            }
            switch (entry.payload.kind) {
            case Event::Kind::Arrivals:
                // Releases settle before admissions at equal times,
                // like the legacy epoch top.
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
                arbitrateNow();
                break;
            case Event::Kind::Sample:
                processCompletions();
                sampleWindow(entry.payload.index);
                break;
            default:
                throw std::logic_error(
                    "event engine: unexpected event in event mode");
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
        const std::size_t admitted = admit(offers_[e], e, window_);
        if (admitted == 0)
            return;
        requestArbitration();
        scheduleQuantum();
    }

    /**
     * Sweep tenants that finished during the latest advancement:
     * count them into the open stats window, feed their QoS loss back
     * to the arbiter, release their machine slots, and return them to
     * the pool (their records are already committed in the hub) —
     * then ask for a re-price, since occupancy changed. Idempotent;
     * any same-time handler may call it before the Completion event
     * pops.
     */
    void
    processCompletions()
    {
        std::vector<double> machine_qos(cluster_.size(), 0.0);
        std::vector<std::size_t> machine_jobs(cluster_.size(), 0);
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                ++window_.completed;
                window_beats_ += record.beats - tenant->beats_reported;
                machine_qos[tenant->machine_index] += record.qos_loss;
                ++machine_jobs[tenant->machine_index];
                window_qos_sum_ += record.qos_loss;
                ++window_finished_;
                scheduler_.noteCompletion(record.latency_s,
                                          record.predicted_s);
                scheduler_.release(tenant->machine_index);
                pool_.release(std::move(tenant));
            } else {
                active_[kept++] = std::move(tenant);
            }
        }
        if (kept == active_.size())
            return;
        active_.resize(kept);
        for (std::size_t m = 0; m < cluster_.size(); ++m)
            if (machine_jobs[m] > 0)
                qos_feedback_[m] = machine_qos[m] /
                    static_cast<double>(machine_jobs[m]);
        requestArbitration();
    }

    /** One coalesced lease rewrite at the current virtual time. */
    void
    arbitrateNow()
    {
        last_decision_ = arbiter_.arbitrate(cluster_, qos_feedback_);
        scheduler_.noteArbitration(last_decision_);
        ++generation_;
        if (options_.arbitration_probe)
            options_.arbitration_probe(ArbitrationSample{
                clock_.now(), generation_, last_decision_});
        tracer_.at(clock_.now());
        tracer_.arbitration(generation_, last_decision_);
        const std::size_t epoch = epochOf(clock_.now());
        for (auto &tenant : active_)
            detail::writeLease(cluster_, *tenant, generation_, epoch,
                               last_decision_, tracer_);
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

        EpochStats row = window_;
        row.epoch = start;
        row.lease_generation = generation_;
        row.fleet_rate = static_cast<double>(window_beats_) /
            (static_cast<double>(end - start) * epoch_s_);
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
    // Shared with both modes (and bit-identical to the epoch loop).
    // ------------------------------------------------------------------

    /**
     * Serial admission of @p offered jobs arriving at epoch @p e, with
     * shed accounting into @p stats, each admitted job assigned to a
     * tenant from the pool.
     * @return Jobs actually admitted (appended to active_, in order).
     */
    std::size_t
    admit(const std::vector<workload::OfferedJob> &offered,
          std::size_t e, EpochStats &stats)
    {
        tracer_.at(static_cast<double>(e) * epoch_s_);
        const std::size_t shed_before = scheduler_.shedCount();
        const auto placements = detail::admitOffers(
            scheduler_, offered, next_job_, next_offer_, tracer_);
        stats.arrivals += placements.size();
        const std::size_t shed = scheduler_.shedCount() - shed_before;
        stats.shed += shed;
        report_.total_shed += shed;

        for (const auto &[admission, offer] : placements)
            active_.push_back(pool_.acquire(
                cluster_, admission, *offer, next_job_++, e,
                static_cast<double>(e) * epoch_s_));
        return placements.size();
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

    const core::ResponseModel &model_;
    const ServerOptions &options_;
    const std::vector<std::vector<workload::OfferedJob>> &offers_;

    sim::Cluster cluster_;
    Scheduler scheduler_;
    PowerArbiter arbiter_;
    core::FanoutEngine engine_;
    MetricsHub hub_;
    FleetTracer tracer_;
    detail::TenantPool pool_;

    sim::VirtualClock clock_;
    EventQueue<Event> queue_;

    std::vector<double> qos_feedback_;
    std::vector<std::unique_ptr<Tenant>> active_; // In job order.
    FleetReport report_;
    std::size_t next_job_ = 0;
    std::size_t next_offer_ = 0;
    double epoch_s_ = 0.0;

    // Compat-mode state.
    EpochStats pending_{};
    ArbitrationDecision last_decision_{};

    // Event-mode state.
    double horizon_s_ = 0.0;
    double quantum_s_ = 0.0;
    std::size_t generation_ = 0;
    bool quantum_pending_ = false;
    bool arbitrate_pending_ = false;
    bool completion_pending_ = false;
    EpochStats window_{};
    std::size_t window_beats_ = 0;
    double window_qos_sum_ = 0.0;
    std::size_t window_finished_ = 0;
};

} // namespace

FleetReport
serveEventDriven(const core::App &app, const core::KnobTable &table,
                 const core::ResponseModel &model,
                 const ServerOptions &options,
                 const std::vector<std::vector<workload::OfferedJob>>
                     &offers)
{
    return EventServe(app, table, model, options, offers).run();
}

} // namespace powerdial::fleet

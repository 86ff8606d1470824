/**
 * @file
 * The fleet server: many PowerDial-controlled sessions as tenants of
 * a simulated cluster.
 *
 * This is the datacenter story of the paper (sections 3 and 5.5)
 * closed into one loop. An open-loop arrival process offers jobs each
 * epoch; the Scheduler places them on machines (dynamic occupancy, not
 * the analytic balance); the PowerArbiter splits the cluster-wide
 * power cap into per-machine DVFS caps (and, under very tight budgets,
 * duty-cycle pauses delivered through the session beat gate); every
 * admitted job runs a full closed-loop core::Session on a private
 * App::clone whose machine models its host's core share and frequency
 * cap; and each tenant fills the job's record from its session's
 * result (core::ControlledRun), which the server stores when it
 * releases the tenant, feeding per-machine QoS loss back to the
 * arbiter for the next epoch.
 *
 *   arrivals ─▶ Scheduler ─▶ persistent tenant Sessions ─▶ job records
 *                  ▲               ▲ lease re-read            │
 *                  │ shed /        │ (per-beat gate)          │ per-
 *                  │ release   ArbitrationLease               │ machine
 *                  │               ▲ new terms each epoch     │ QoS
 *                  └────────── PowerArbiter ◀─────────────────┘
 *
 * Tenants are *persistent across epochs*: a job admitted at epoch e
 * holds one core::Session that the server advances one epoch slice at
 * a time (Session::advanceUntil), so a job spanning several epochs is
 * in flight while later arbitration rounds run. Each machine carries a
 * mutable ArbitrationLease that all its tenants read; the arbiter
 * writes new terms (share, P-state cap, duty-cycle pause) into the
 * lease at every epoch boundary and each tenant's beat gate re-reads
 * it, applying changed terms within one beat — mid-run, without the
 * session ever being restarted. Admission control bounds each
 * machine's run queue (ServerOptions::queue_depth); arrivals past the
 * bound are shed and counted.
 *
 * Determinism follows the repo's replay discipline: all placement and
 * arbitration decisions are serial; only the mutually independent
 * tenant epoch slices fan out through core::FanoutEngine, and each
 * job's record is stored at its job id — the full report is
 * bit-identical at any thread count (tests/test_fleet.cc pins this).
 */
#ifndef POWERDIAL_FLEET_SERVER_H
#define POWERDIAL_FLEET_SERVER_H

#include <cstddef>
#include <functional>
#include <vector>

#include "core/session.h"
#include "fleet/metrics_hub.h"
#include "fleet/power_arbiter.h"
#include "fleet/scheduler.h"
#include "sim/cluster.h"

namespace powerdial::obs {
class TraceSink;
}

namespace powerdial::fleet {

/**
 * Which schedule drives the serve.
 *
 * Epoch is the synchronous round loop: every epoch advances every
 * tenant one slice and runs one arbitration round, whether or not
 * anything changed. Event is the discrete-event engine: a priority
 * queue of typed events — arrivals, beat-quantum expiries,
 * completions, lease rewrites, trace samples — ordered by (virtual
 * time, stable sequence id), with arbitration fired by state changes
 * rather than by the epoch clock. Both run in one per-serve state
 * (src/fleet/event_engine.cc) and share admission, arbitration, tenant
 * release, QoS feedback, and report finalisation; they differ only in
 * when those steps run.
 */
enum class EngineMode
{
    Epoch,
    Event,
};

/**
 * Tuning for EngineMode::Event (ignored under EngineMode::Epoch). The
 * engine visits every active tenant at least once an epoch, so a
 * completion goes unnoticed for at most one epoch.
 */
struct EventEngineOptions
{
    /**
     * Emit one EpochStats row per this many epochs (trace-sample
     * events). 1 = every epoch, like the epoch schedule; larger
     * strides keep the report small for 10^4+-epoch scale runs. Must
     * be >= 1.
     */
    std::size_t sample_stride = 1;
};

/**
 * One arbitration round as observed by ServerOptions::arbitration_probe:
 * when it fired (virtual seconds), the lease generation it installed,
 * and the decision's per-machine terms. The decision reference is only
 * valid during the callback.
 */
struct ArbitrationSample
{
    double time_s = 0.0;
    std::size_t generation = 0;
    const ArbitrationDecision &decision;
};

/**
 * Observer for arbitration rounds (both engines call it, in virtual-
 * time order). Tests use it to assert per-machine budgets sum to the
 * cap after *every* round and that rounds are monotone in time.
 */
using ArbitrationProbe = std::function<void(const ArbitrationSample &)>;

/**
 * The mutable, epoch-indexed contract between the arbiter and the
 * in-flight tenants of one machine. The server rewrites the terms at
 * every epoch boundary (serially, between slices); each tenant's
 * per-beat session gate re-reads them and applies any change at its
 * next beat. The
 * generation tags every rewrite so both the gate (did I apply this
 * yet?) and the metrics pipeline (which arbitration round produced
 * this series?) can tell leases apart.
 */
struct ArbitrationLease
{
    std::size_t generation = 0; //!< 0 = no terms written yet.
    std::size_t epoch = 0;      //!< Epoch the current terms took effect.
    double share = 1.0;         //!< Core share of the hosting machine.
    double utilization = 1.0;   //!< Host utilisation for power accounting.
    std::size_t pstate_cap = 0; //!< Arbiter DVFS cap (0 = uncapped).
    double pause_ratio = 0.0;   //!< Duty-cycle idle per busy second.
};

/** Fleet composition options. */
struct ServerOptions
{
    /** Machines in the (possibly consolidated) cluster. Ignored when
     *  a catalog is set — the class mix sizes the fleet instead. */
    std::size_t machines = 1;
    /** Per-machine configuration (all identical; ignored when a
     *  catalog is set). */
    sim::Machine::Config machine{};
    /**
     * Heterogeneous fleet: when non-empty, the cluster is provisioned
     * from this catalog and class_mix (class_mix[c] machines of
     * catalog class c, class order) instead of `machines` copies of
     * `machine`. Empty (default) keeps the homogeneous path — and its
     * outputs — bit for bit.
     */
    sim::MachineCatalog catalog{};
    /** Machines per catalog class; must be parallel to the catalog
     *  (and provision >= 1 machine) when the catalog is set. */
    std::vector<std::size_t> class_mix;
    /**
     * Worker threads for tenant sessions: 1 (default) serial, 0 all
     * hardware contexts, N > 1 exactly N. The report is bit-identical
     * regardless.
     */
    std::size_t threads = 1;
    /**
     * Virtual seconds per scheduling epoch; <= 0 means the calibrated
     * baseline job duration (so an unloaded job spans ~one epoch).
     * Must be finite.
     */
    double epoch_seconds = 0.0;
    /** Cluster power-cap arbitration. */
    ArbiterOptions arbiter{};
    /** Placement policy; null means least-loaded. */
    PlacementFactory placement;
    /**
     * Bounded per-machine run-queue depth (max active instances one
     * machine may host); arrivals that find every machine at the
     * bound are shed and counted. 0 = unbounded (the default).
     */
    std::size_t queue_depth = 0;
    /**
     * Admission policy (fleet/admission.h); null means the historical
     * blind queue-depth shedding. makePredictiveAdmission() sheds by
     * predicted SLO violation instead, using the server's calibrated
     * response model.
     */
    AdmissionFactory admission;
    /** Control-loop composition shared by every tenant session. */
    core::SessionOptions session{};
    /**
     * Tenant input streams: each arriving job serves the next input
     * index in this list (round-robin by job id). Empty means the
     * application's production inputs; every entry must be below the
     * application's inputCount().
     */
    std::vector<std::size_t> tenants;
    /** Which engine drives serve(); see EngineMode. */
    EngineMode engine = EngineMode::Epoch;
    /** Event-engine tuning (ignored under EngineMode::Epoch). */
    EventEngineOptions event{};
    /** Optional observer invoked after every arbitration round. */
    ArbitrationProbe arbitration_probe;
    /**
     * Structured trace sink (obs/trace_sink.h); null (default) records
     * nothing and costs one branch per would-be event. Borrowed — must
     * outlive the server. Both engines call TraceSink::beginServe at
     * the top of every serve, so a sink attached across several serves
     * holds the last serve's trace.
     */
    obs::TraceSink *trace = nullptr;
};

/** Aggregate fleet state over one epoch. */
struct EpochStats
{
    std::size_t epoch = 0;
    std::size_t arrivals = 0;  //!< Jobs admitted this epoch.
    std::size_t shed = 0;      //!< Jobs shed by admission control.
    std::size_t completed = 0; //!< Jobs released this epoch.
    std::size_t active = 0;    //!< In-flight jobs after placement.
    /** Lease generation the arbiter installed for this epoch. */
    std::size_t lease_generation = 0;
    double watts = 0.0;        //!< Cluster power at the epoch's state.
    /** Heartbeats delivered during this epoch's slices per epoch
     *  second — each beat of a cross-epoch tenant counts once. */
    double fleet_rate = 0.0;
    double mean_qos_loss = 0.0;//!< Mean QoS loss of jobs finishing here.
    double max_pause_ratio = 0.0; //!< Worst arbitration duty-cycle.
};

/** Per-tenant (input stream) aggregate over a whole serve. */
struct TenantStats
{
    std::size_t tenant = 0; //!< Input index identifying the tenant.
    std::size_t jobs = 0;
    double mean_qos_loss = 0.0;
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/** Per-machine serving quality over a whole serve. */
struct MachineStats
{
    std::size_t machine = 0;       //!< Machine index in the cluster.
    std::size_t machine_class = 0; //!< Catalog class of the machine.
    std::size_t jobs = 0;          //!< Jobs this machine hosted.
    std::size_t shed = 0;          //!< Sheds charged to this machine.
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/** Per-priority-class serving quality over a whole serve. */
struct ClassStats
{
    std::size_t job_class = 0; //!< Priority class (0 = highest).
    std::size_t jobs = 0;      //!< Jobs of this class served.
    std::size_t shed = 0;      //!< Jobs of this class shed.
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/** Everything one serve() call measured. */
struct FleetReport
{
    std::vector<EpochStats> epochs;
    std::vector<JobRecord> jobs;     //!< Indexed by job id.
    std::vector<TenantStats> tenants;//!< Sorted by tenant id.
    std::size_t total_jobs = 0;      //!< Jobs admitted (and served).
    std::size_t total_shed = 0;      //!< Jobs shed by admission control.
    /** Jobs still in flight at the horizon, finished in the drain. */
    std::size_t drained_jobs = 0;
    /** Sheds charged to the machine the placement policy picked. */
    std::vector<std::size_t> shed_by_machine;
    /** Sheds per priority class (indexed by class, grown on demand). */
    std::vector<std::size_t> shed_by_class;
    /** Per-class latency percentiles and shed counts, sorted by
     *  class. Covers every class seen in served or shed jobs. */
    std::vector<ClassStats> classes;
    /** Per-machine latency percentiles, hosted-job and shed counts —
     *  one row per cluster machine, in machine order, each tagged
     *  with its catalog class. */
    std::vector<MachineStats> machines;
    double mean_watts = 0.0;       //!< Mean of per-epoch cluster power.
    double mean_fleet_rate = 0.0;  //!< Mean of per-epoch heart rate.
    double mean_qos_loss = 0.0;    //!< Mean over all jobs.
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/**
 * Serves an arrival trace with many concurrent controlled sessions.
 * The application, knob table, and response model must outlive the
 * server; the caller's app instance is never run (each tenant job
 * executes on a private clone).
 */
class Server
{
  public:
    /**
     * Throws std::invalid_argument for options a serve would fail on:
     * among them a tenant that is not an input of @p app, arbiter
     * options PowerArbiter rejects, and (without a catalog) a machine
     * configuration sim::Machine rejects.
     */
    Server(const core::App &app, const core::KnobTable &table,
           const core::ResponseModel &model, ServerOptions options);

    const ServerOptions &options() const { return options_; }

    /**
     * Run the fleet through @p arrivals (jobs offered per epoch, e.g.
     * from workload::makePoissonArrivals) and report the aggregate
     * series plus every job's record. Every offered job carries the
     * legacy metadata: round-robin tenant, class 0, no deadline.
     */
    FleetReport serve(const std::vector<std::size_t> &arrivals);

    /**
     * Run the fleet through a composed traffic schedule (jobs offered
     * per epoch with tenant/class/deadline metadata, e.g. from
     * workload::makeTrafficMix) — the SLO-aware serving path: the
     * admission policy sees each job's deadline class, and the report
     * carries per-class percentiles and shed counts. Throws
     * std::invalid_argument, before admitting any job, when an offer's
     * tenant is neither kRoundRobinTenant nor an input of the app, or
     * when workload::badJobTerms rejects its class or deadline.
     */
    FleetReport
    serve(const std::vector<std::vector<workload::OfferedJob>> &offers);

  private:
    const core::App *app_;
    const core::KnobTable *table_;
    const core::ResponseModel *model_;
    ServerOptions options_;
};

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_SERVER_H

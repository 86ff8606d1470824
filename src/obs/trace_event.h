/**
 * @file
 * The structured trace-event vocabulary of the observability layer.
 *
 * Every consequential decision the system makes — a controller
 * re-plan, an admission verdict, a placement costing, an arbitration
 * round, a lease rewrite, a shed — is describable as one TraceRecord:
 * a flat, fixed-layout struct with a common identity header (virtual
 * time, stream, per-stream sequence number, job/tenant/machine/class)
 * plus named payload fields, of which each TraceKind fills the subset
 * it needs. Flat on purpose: records are sortable by value, copyable
 * between buffers without per-record allocation, and exportable to
 * both Chrome trace JSON and JSONL from one switch over the kind.
 *
 * Timestamps are virtual-clock seconds (the simulated platform's
 * time), never host time, so a trace is a pure function of the
 * scenario — bit-identical across thread counts and replayable.
 */
#ifndef POWERDIAL_OBS_TRACE_EVENT_H
#define POWERDIAL_OBS_TRACE_EVENT_H

#include <cstddef>

namespace powerdial::obs {

/** "No index" sentinel for optional identity fields (rendered as
 *  absent by the exporters). */
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/**
 * Category bitmask: each record belongs to exactly one category;
 * TraceConfig::categories selects which are recorded at all. The
 * check is one mask-and-compare per event, so a category that is off
 * costs one branch.
 */
enum : unsigned {
    kCatLifecycle = 1u << 0,   //!< Job start / job end.
    kCatControl = 1u << 1,     //!< Quantum re-plans (error, command).
    kCatBeat = 1u << 2,        //!< Per-heartbeat actuation state.
    kCatAdmission = 1u << 3,   //!< Admission verdicts and sheds.
    kCatPlacement = 1u << 4,   //!< Per-candidate placement costs.
    kCatArbitration = 1u << 5, //!< Power splits and lease rewrites.
    kCatAll = (1u << 6) - 1,
};

/** Record severity; TraceConfig::min_severity filters below it. */
enum class Severity : unsigned char
{
    Debug = 0, //!< Per-beat firehose detail.
    Info = 1,  //!< Normal decisions (admits, leases, re-plans).
    Warn = 2,  //!< Something was turned away or degraded (sheds).
};

/** What one record describes. */
enum class TraceKind : unsigned char
{
    JobStart,    //!< Lifecycle: an admitted job began executing.
    JobEnd,      //!< Lifecycle: the job completed (latency breakdown).
    Control,     //!< Control: a quantum boundary re-plan.
    Beat,        //!< Beat: one heartbeat's actuation state.
    Admit,       //!< Admission: a job was admitted (with pricing).
    Shed,        //!< Admission: a job was turned away (with cause).
    Placement,   //!< Placement: one candidate machine's cost.
    Arbitration, //!< Arbitration: one machine's terms this round.
    Lease,       //!< Arbitration: one tenant's rewritten lease.
};

/** The category a kind belongs to. */
constexpr unsigned
categoryOf(TraceKind kind)
{
    switch (kind) {
    case TraceKind::JobStart:
    case TraceKind::JobEnd:
        return kCatLifecycle;
    case TraceKind::Control:
        return kCatControl;
    case TraceKind::Beat:
        return kCatBeat;
    case TraceKind::Admit:
    case TraceKind::Shed:
        return kCatAdmission;
    case TraceKind::Placement:
        return kCatPlacement;
    case TraceKind::Arbitration:
    case TraceKind::Lease:
        return kCatArbitration;
    }
    return 0;
}

/** Stable lower-case name of a kind (JSON "kind" field). */
constexpr const char *
kindName(TraceKind kind)
{
    switch (kind) {
    case TraceKind::JobStart:
        return "job_start";
    case TraceKind::JobEnd:
        return "job_end";
    case TraceKind::Control:
        return "control";
    case TraceKind::Beat:
        return "beat";
    case TraceKind::Admit:
        return "admit";
    case TraceKind::Shed:
        return "shed";
    case TraceKind::Placement:
        return "placement";
    case TraceKind::Arbitration:
        return "arbitration";
    case TraceKind::Lease:
        return "lease";
    }
    return "?";
}

/**
 * One trace event. The header (time_s..job_class) is always valid;
 * payload fields are valid per kind (see the exporters for which kind
 * renders which fields). Sorting by (time_s, stream, seq) is total —
 * stream 0 is the serial fleet plane with one sink-owned sequence,
 * every other stream is one job's observer (stream = job + 1) with a
 * probe-owned sequence — and independent of which worker recorded the
 * event, which is the whole determinism argument.
 */
struct TraceRecord
{
    // --- identity header -------------------------------------------------
    double time_s = 0.0;               //!< Virtual-clock timestamp.
    TraceKind kind = TraceKind::Beat;
    Severity severity = Severity::Info;
    std::size_t stream = 0;            //!< 0 = fleet plane, else job+1.
    std::size_t seq = 0;               //!< Per-stream sequence number.
    std::size_t job = kNoIndex;        //!< Fleet job id (if any).
    std::size_t offer = kNoIndex;      //!< Offer id (admission plane).
    std::size_t tenant = kNoIndex;     //!< Tenant input index (if any).
    std::size_t machine = kNoIndex;    //!< Machine index (if any).
    std::size_t job_class = kNoIndex;  //!< Priority class (if any).

    // --- control / beat payload ------------------------------------------
    std::size_t beat = kNoIndex;        //!< Beat index within the run.
    double window_rate = 0.0;           //!< Observed heart rate.
    double error = 0.0;                 //!< target - window_rate.
    double commanded = 0.0;             //!< Commanded speedup.
    double knob_gain = 0.0;             //!< Installed combo's speedup.
    std::size_t combination = kNoIndex; //!< Installed knob combination.
    std::size_t pstate = kNoIndex;      //!< Machine P-state.

    // --- admission / placement payload ------------------------------------
    double predicted_s = 0.0;   //!< Predicted completion latency.
    double deadline_s = 0.0;    //!< Offered deadline (0 = none).
    double margin = 0.0;        //!< Admission margin multiplier.
    double class_factor = 0.0;  //!< 1 + class_headroom * class.
    double cost = 0.0;          //!< Placement candidate cost.
    /** Shed cause ("capacity" / "slo"); static string or null. */
    const char *cause = nullptr;

    // --- arbitration / lease payload ---------------------------------------
    std::size_t generation = 0; //!< Arbitration-round generation.
    double share = 0.0;         //!< Leased core share.
    double budget_watts = 0.0;  //!< Machine's power budget this round.
    std::size_t pstate_cap = 0; //!< Leased DVFS cap (0 = uncapped).
    double pause_ratio = 0.0;   //!< Leased duty-cycle pause.

    // --- completion payload -----------------------------------------------
    double latency_s = 0.0;       //!< Total completion latency.
    double qos_loss = 0.0;        //!< Work-weighted calibrated QoS loss.
    double service_s = 0.0;       //!< Latency breakdown: pure service.
    double queue_share_s = 0.0;   //!< Breakdown: co-tenancy queueing.
    double class_deficit_s = 0.0; //!< Breakdown: sub-nominal speed.
    double pause_s = 0.0;         //!< Breakdown: gate + planned idle.
    std::size_t beats = 0;        //!< Heartbeats the job emitted.
};

} // namespace powerdial::obs

#endif // POWERDIAL_OBS_TRACE_EVENT_H

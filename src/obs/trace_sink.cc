#include "obs/trace_sink.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace powerdial::obs {

std::optional<unsigned>
parseCategories(const std::string &text)
{
    unsigned mask = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string name = text.substr(start, end - start);
        if (name == "lifecycle")
            mask |= kCatLifecycle;
        else if (name == "control")
            mask |= kCatControl;
        else if (name == "beat")
            mask |= kCatBeat;
        else if (name == "admission")
            mask |= kCatAdmission;
        else if (name == "placement")
            mask |= kCatPlacement;
        else if (name == "arbitration")
            mask |= kCatArbitration;
        else if (name == "fleet")
            mask |= kCatAdmission | kCatPlacement | kCatArbitration;
        else if (name == "all")
            mask |= kCatAll;
        else if (name != "none")
            return std::nullopt;
        start = end + 1;
    }
    return mask;
}

TraceSink::TraceSink(TraceConfig config) : config_(config) {}

void
TraceSink::beginServe()
{
    records_.clear();
    fleet_seq_ = 0;
}

void
TraceSink::emitFleet(TraceRecord record)
{
    record.stream = 0;
    record.seq = fleet_seq_++;
    records_.push_back(record);
}

void
TraceSink::append(const std::vector<TraceRecord> &records)
{
    records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<TraceRecord>
TraceSink::drain()
{
    std::vector<TraceRecord> merged = std::move(records_);
    records_.clear();
    std::sort(merged.begin(), merged.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return std::tie(a.time_s, a.stream, a.seq) <
                      std::tie(b.time_s, b.stream, b.seq);
              });
    return merged;
}

TraceRecord
TraceProbe::base(TraceKind kind, Severity severity, double local_time_s)
{
    TraceRecord record;
    record.time_s = identity_.offset_s + local_time_s;
    record.kind = kind;
    record.severity = severity;
    record.stream = identity_.job + 1;
    record.seq = seq_++;
    record.job = identity_.job;
    record.tenant = identity_.tenant;
    record.machine = identity_.machine;
    record.job_class = identity_.job_class;
    return record;
}

void
TraceProbe::onRunStart(const core::RunStartEvent &event)
{
    target_rate_ = event.target_rate;
    start_time_s_ = event.start_time_s;
    if (!sink_->wants(kCatLifecycle, Severity::Info))
        return;
    TraceRecord record =
        base(TraceKind::JobStart, Severity::Info, event.start_time_s);
    record.beats = event.units;
    records_.push_back(record);
}

void
TraceProbe::onQuantum(const core::QuantumEvent &event)
{
    if (!sink_->wants(kCatControl, Severity::Info))
        return;
    TraceRecord record =
        base(TraceKind::Control, Severity::Info, event.time_s);
    record.beat = event.beat;
    record.window_rate = event.window_rate;
    record.error = target_rate_ - event.window_rate;
    record.commanded = event.commanded_speedup;
    if (!event.plan.slices.empty()) {
        record.combination = event.plan.slices.front().combination;
        record.knob_gain = event.plan.slices.front().speedup;
    }
    records_.push_back(record);
}

void
TraceProbe::onBeat(const core::BeatEvent &event)
{
    if (!sink_->wants(kCatBeat, Severity::Debug))
        return;
    TraceRecord record =
        base(TraceKind::Beat, Severity::Debug, event.trace.time_s);
    record.beat = event.beat;
    record.window_rate = event.trace.window_rate;
    record.error = target_rate_ - event.trace.window_rate;
    record.commanded = event.trace.commanded_speedup;
    record.knob_gain = event.trace.knob_gain;
    record.combination = event.trace.combination;
    record.pstate = event.trace.pstate;
    records_.push_back(record);
}

void
TraceProbe::onRunEnd(const core::ControlledRun &run)
{
    if (!sink_->wants(kCatLifecycle, Severity::Info))
        return;
    TraceRecord record = base(TraceKind::JobEnd, Severity::Info,
                              start_time_s_ + run.seconds);
    record.latency_s = run.seconds;
    record.qos_loss = run.mean_qos_loss_estimate;
    record.service_s = run.service_s;
    record.queue_share_s = run.queue_share_s;
    record.class_deficit_s = run.class_deficit_s;
    record.pause_s = run.pause_s;
    record.beats = run.beat_count;
    records_.push_back(record);
}

void
TraceProbe::flush()
{
    sink_->append(records_);
    records_.clear();
}

} // namespace powerdial::obs

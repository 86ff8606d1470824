#include "core/trace_export.h"

#include <stdexcept>

namespace powerdial::core {

namespace {

const char kBeatsHeader[] =
    "beat,time_s,window_rate,normalized_perf,commanded_speedup,"
    "knob_gain,combination,pstate\n";

void
writeBeatRow(std::ostream &os, std::size_t beat, const BeatTrace &b)
{
    os << beat << ',' << b.time_s << ',' << b.window_rate << ','
       << b.normalized_perf << ',' << b.commanded_speedup << ','
       << b.knob_gain << ',' << b.combination << ',' << b.pstate
       << '\n';
}

} // namespace

void
writeBeatsCsv(std::ostream &os, const std::vector<BeatTrace> &beats,
              std::size_t decimate)
{
    if (decimate == 0)
        throw std::invalid_argument("writeBeatsCsv: zero decimation");
    os << kBeatsHeader;
    for (std::size_t i = 0; i < beats.size(); i += decimate)
        writeBeatRow(os, i, beats[i]);
}

CsvTraceObserver::CsvTraceObserver(std::ostream &os, std::size_t decimate)
    : os_(&os), decimate_(decimate)
{
    if (decimate_ == 0)
        throw std::invalid_argument("CsvTraceObserver: zero decimation");
}

void
CsvTraceObserver::onRunStart(const RunStartEvent &event)
{
    (void)event;
    *os_ << kBeatsHeader;
}

void
CsvTraceObserver::onBeat(const BeatEvent &event)
{
    if (event.beat % decimate_ == 0)
        writeBeatRow(*os_, event.beat, event.trace);
}

} // namespace powerdial::core

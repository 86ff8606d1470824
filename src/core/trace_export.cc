#include "core/trace_export.h"

#include <stdexcept>

namespace powerdial::core {

void
writeBeatsCsv(std::ostream &os, const std::vector<BeatTrace> &beats,
              std::size_t decimate)
{
    if (decimate == 0)
        throw std::invalid_argument("writeBeatsCsv: zero decimation");
    os << "beat,time_s,window_rate,normalized_perf,commanded_speedup,"
          "knob_gain,combination,pstate\n";
    for (std::size_t i = 0; i < beats.size(); i += decimate) {
        const BeatTrace &b = beats[i];
        os << i << ',' << b.time_s << ',' << b.window_rate << ','
           << b.normalized_perf << ',' << b.commanded_speedup << ','
           << b.knob_gain << ',' << b.combination << ',' << b.pstate
           << '\n';
    }
}

} // namespace powerdial::core

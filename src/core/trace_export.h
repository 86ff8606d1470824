/**
 * @file
 * CSV export of controlled-run traces.
 *
 * The paper's Figure 7 is a per-beat time series: attach a
 * BeatTraceRecorder to the session and render its beats with
 * writeBeatsCsv once the run is over.
 */
#ifndef POWERDIAL_CORE_TRACE_EXPORT_H
#define POWERDIAL_CORE_TRACE_EXPORT_H

#include <ostream>
#include <vector>

#include "core/run_observer.h"

namespace powerdial::core {

/**
 * Write a beat series as CSV with header:
 * `beat,time_s,window_rate,normalized_perf,commanded_speedup,
 *  knob_gain,combination,pstate`.
 *
 * @param decimate Keep every n-th beat (1 = all). Must be >= 1.
 */
void writeBeatsCsv(std::ostream &os,
                   const std::vector<BeatTrace> &beats,
                   std::size_t decimate = 1);

} // namespace powerdial::core

#endif // POWERDIAL_CORE_TRACE_EXPORT_H

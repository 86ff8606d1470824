/**
 * @file
 * CSV export of controlled-run traces.
 *
 * The paper's Figure 7 is a per-beat time series. Two export paths
 * ship:
 *
 *  - writeBeatsCsv renders an already-recorded beat series (from a
 *    BeatTraceRecorder) in one pass;
 *  - CsvTraceObserver streams the same rows through the RunObserver
 *    seam as the run executes, so long runs never hold their full
 *    trace in memory.
 *
 * Both produce identical bytes for the same run (tested).
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

/**
 * Streaming CSV exporter on the observer seam: writes the header at
 * run start and one row per (decimated) beat as it happens. The
 * stream must outlive the observer's session.
 */
class CsvTraceObserver final : public RunObserver
{
  public:
    /** @param decimate Keep every n-th beat (1 = all). Must be >= 1. */
    explicit CsvTraceObserver(std::ostream &os, std::size_t decimate = 1);

    void onRunStart(const RunStartEvent &event) override;
    void onBeat(const BeatEvent &event) override;

  private:
    std::ostream *os_;
    std::size_t decimate_;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_TRACE_EXPORT_H

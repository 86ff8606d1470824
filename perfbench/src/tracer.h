/**
 * @file
 * Outside-in span tracing for the benchmark's per-layer run.
 *
 * The benchmark records a span around every call it makes into a
 * PowerDial layer (input generation, knob identification, calibration,
 * fleet serving) and, through decorators on the fleet's two policy
 * seams, around every admission decision and placement pick made
 * inside a serve. Spans carry the span that caused them and the
 * operation (the "request") they belong to, and live in memory until
 * the run ends.
 *
 * Admission and placement run once per arriving job — tens of
 * thousands of times per serve — so one span per call would cost more
 * than the work. Those seams are aggregated instead: each serve gets
 * one child span per seam whose duration is the seam's summed busy
 * time and whose `calls` field counts the calls. A layer's self time is
 * its span's duration minus its children's, which works the same for
 * both kinds of span.
 */
#ifndef POWERDIAL_PERFBENCH_TRACER_H
#define POWERDIAL_PERFBENCH_TRACER_H

#include <chrono>
#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/admission.h"
#include "fleet/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/** One call into one layer, or one seam's aggregate within a serve. */
struct Span
{
    std::string name;
    std::size_t parent = kNoSpan; //!< Causing span (kNoSpan = root).
    std::size_t op = 0;           //!< Operation the span belongs to.
    double start_ms = 0.0;        //!< Since the tracer was created.
    double end_ms = 0.0;
    std::size_t calls = 1;        //!< > 1 only for seam aggregates.

    double ms() const { return end_ms - start_ms; }
};

/** Busy time and call count of one high-frequency seam. */
struct SeamTally
{
    double ms = 0.0;
    std::size_t calls = 0;
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Open a span; returns its id for end() and as a parent. */
    std::size_t
    begin(std::string name, std::size_t parent, std::size_t op)
    {
        spans_.push_back({std::move(name), parent, op, nowMs(), 0.0, 1});
        return spans_.size() - 1;
    }

    void end(std::size_t id) { spans_[id].end_ms = nowMs(); }

    /** Attach a seam's aggregate as a child of @p parent. */
    std::size_t
    aggregate(std::string name, std::size_t parent, const SeamTally &tally)
    {
        const Span &owner = spans_[parent];
        spans_.push_back({std::move(name), parent, owner.op,
                          owner.start_ms, owner.start_ms + tally.ms,
                          tally.calls});
        return spans_.size() - 1;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part covered by direct children. */
    std::vector<double> selfMs() const;

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void writeChromeTrace(std::ostream &out) const;

  private:
    double
    nowMs() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::size_t parent,
               std::size_t op)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, parent, op) : kNoSpan)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::size_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::size_t id_;
};

/**
 * Tallies for the two fleet policy seams of one serve. Admission
 * decisions place admitted jobs through the placement policy, so the
 * placement tally is a child of the admission tally.
 */
struct SeamTallies
{
    SeamTally admission;
    SeamTally placement;
};

/**
 * Wrap the placement and admission factories of a serve so every call
 * is timed into @p tallies. Behaviour is unchanged: the wrappers forward
 * every virtual to the policies the factories would have built (the
 * fleet defaults when a factory is empty).
 */
void instrumentSeams(powerdial::fleet::PlacementFactory &placement,
                     powerdial::fleet::AdmissionFactory &admission,
                     SeamTallies &tallies);

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_TRACER_H

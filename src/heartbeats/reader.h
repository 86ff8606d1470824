/**
 * @file
 * External-observer view of a heartbeat Monitor.
 *
 * The real Application Heartbeats library exposes a shared-memory reader
 * so that an external process (the PowerDial control system, an OS
 * service, ...) can observe an application's heart rate without linking
 * against the application. This reader reproduces that read-only API
 * surface in-process.
 */
#ifndef POWERDIAL_HEARTBEATS_READER_H
#define POWERDIAL_HEARTBEATS_READER_H

#include "heartbeats/heartbeat.h"

namespace powerdial::hb {

/** Read-only observer handle onto a Monitor. */
class Reader
{
  public:
    explicit Reader(const Monitor &monitor) : monitor_(&monitor) {}

    /** Sequence number of the most recent beat (count - 1), or -1. */
    std::int64_t
    currentTag() const
    {
        return static_cast<std::int64_t>(monitor_->count()) - 1;
    }

    /** Window heart rate, beats/second. */
    double windowRate() const { return monitor_->windowRate(); }

    /** Global heart rate, beats/second. */
    double globalRate() const { return monitor_->globalRate(); }

    /** Declared minimum target rate. */
    double minTarget() const { return monitor_->target().min_rate; }

    /** Declared maximum target rate. */
    double maxTarget() const { return monitor_->target().max_rate; }

    /** Record of the most recent beat. Throws if no beat was emitted. */
    HeartbeatRecord latest() const { return monitor_->latest(); }

  private:
    const Monitor *monitor_;
};

} // namespace powerdial::hb

#endif // POWERDIAL_HEARTBEATS_READER_H

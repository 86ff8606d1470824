/**
 * @file
 * The deterministic typed event queue under the event-driven fleet
 * engine.
 *
 * A discrete-event simulation is only as reproducible as its event
 * order. This queue makes that order *total and stable*: every push
 * stamps the event with a monotonically increasing sequence id, and
 * pop() always returns the entry with the smallest (time, seq) pair.
 * Two consequences the fleet engine (and its thread-count tests)
 * depend on:
 *
 *   - ties are impossible: events scheduled for the same virtual time
 *     dispatch in exactly the order they were pushed (FIFO among
 *     equals), so handler side effects replay identically run to run;
 *   - the order is independent of how the heap happened to be built:
 *     any insertion order of the same (time, seq)-stamped entries
 *     pops in the same sequence, so the engine's output never depends
 *     on thread count or incidental construction order.
 *
 * tests/test_event_queue.cc pins both properties, plus the absence of
 * starvation: an event can never be overtaken by a later-pushed event
 * with the same (or a later) time.
 */
#ifndef POWERDIAL_FLEET_EVENT_QUEUE_H
#define POWERDIAL_FLEET_EVENT_QUEUE_H

#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace powerdial::fleet {

/**
 * A priority queue of typed events ordered by (virtual time, stable
 * sequence id). Not thread-safe: the fleet engine pushes and pops only
 * from its serial coordination sections.
 */
template <typename Payload>
class EventQueue
{
  public:
    /** One scheduled event. */
    struct Entry
    {
        double time_s = 0.0;     //!< Virtual dispatch time, seconds.
        std::uint64_t seq = 0;   //!< Push order, unique per queue.
        Payload payload{};
    };

    /**
     * Schedule @p payload at virtual time @p time_s; returns the
     * sequence id assigned to the event.
     * @throws std::invalid_argument for negative or NaN times (the
     *         fleet clock starts at zero and only moves forward).
     */
    std::uint64_t
    push(double time_s, Payload payload)
    {
        if (std::isnan(time_s) || time_s < 0.0)
            throw std::invalid_argument(
                "EventQueue: event time must be a non-negative number");
        const std::uint64_t seq = next_seq_++;
        heap_.push(Entry{time_s, seq, std::move(payload)});
        return seq;
    }

    /** The earliest event without removing it. */
    const Entry &
    peek() const
    {
        if (heap_.empty())
            throw std::logic_error("EventQueue: peek on empty queue");
        return heap_.top();
    }

    /** Remove and return the event with the smallest (time, seq). */
    Entry
    pop()
    {
        if (heap_.empty())
            throw std::logic_error("EventQueue: pop on empty queue");
        Entry entry = heap_.top();
        heap_.pop();
        return entry;
    }

    bool empty() const { return heap_.empty(); }

    std::size_t size() const { return heap_.size(); }

    /** Events pushed over the queue's lifetime (= next sequence id). */
    std::uint64_t pushed() const { return next_seq_; }

  private:
    /** Min-heap on (time, seq); seq is unique, so the order is total. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.time_s != b.time_s)
                return a.time_s > b.time_s;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::uint64_t next_seq_ = 0;
};

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_EVENT_QUEUE_H

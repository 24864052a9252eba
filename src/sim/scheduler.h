#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "util/units.h"

namespace ezflow::sim {

using util::SimTime;

/// Handle to a scheduled event, usable for cancellation. Encodes a slot
/// index into the scheduler's event arena plus the slot's generation at
/// scheduling time, so a handle outliving its event (fired or cancelled,
/// slot possibly recycled) is rejected in O(1) without any hash lookup.
struct EventId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;

    bool valid() const { return gen != 0; }
    bool operator==(const EventId& o) const { return slot == o.slot && gen == o.gen; }
    bool operator!=(const EventId& o) const { return !(*this == o); }
};

/// Single-threaded discrete-event scheduler with an integer-microsecond
/// clock. Events scheduled for the same time fire in scheduling order
/// (stable FIFO tie-break), which keeps runs deterministic.
///
/// Storage is a pooled event arena: each live event occupies a
/// generation-counted slot recycled through a free list, and the callback
/// lives inline in the slot (EventFn's small buffer), so steady-state
/// scheduling performs no heap allocation. The time-ordered index is a
/// binary heap of plain {time, seq, slot, gen} records, fed through a
/// staging buffer: newly scheduled records sit unsorted until the next
/// event pop, so the many events that are cancelled before ever firing
/// (the MAC arms an ACK timeout per frame and cancels it when the ACK
/// lands) are filtered out without ever paying a heap push. Cancellation
/// itself releases the slot immediately (O(1)); a record already in the
/// heap goes stale and is dropped when it surfaces, and when stale
/// records outnumber live ones the heap is compacted in place, bounding
/// memory in long runs with heavy cancel churn.
class Scheduler {
public:
    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    SimTime now() const { return now_; }

    /// Schedule `action` to run at absolute time `at` (must be >= now()).
    EventId schedule_at(SimTime at, EventFn action);

    /// Schedule `action` to run `delay` microseconds from now (delay >= 0).
    EventId schedule_in(SimTime delay, EventFn action);

    /// A FIFO place taken now and filled later, or never: the sequence
    /// number a schedule_at at the point of reserve() would have consumed,
    /// and now() at that point.
    struct Reservation {
        std::uint64_t seq = 0;
        SimTime scheduled_at = -1;
    };

    /// Take the place the next schedule_at would get, consuming its
    /// sequence number, without scheduling anything. An event that may
    /// turn out to be unneeded (a NAV expiry at a MAC with nothing to
    /// send) can thus be left out, and scheduled later only if it is
    /// needed, with the same-instant order it would have had.
    Reservation reserve() { return Reservation{next_seq_++, now_}; }

    /// Schedule `action` at `at` into `place`: it fires at (at,
    /// place.seq), so exactly where a schedule_at at the point of
    /// reserve() would have fired, and current_event_scheduled_at()
    /// reports place.scheduled_at while it runs. Fill each place at most
    /// once. Throws std::invalid_argument on what schedule_at rejects, on
    /// a place reserve() never issued, and on a place the clock has
    /// already passed: `at == now()` with a sequence number not after the
    /// running event's (outside an event, every place at now() counts as
    /// passed).
    EventId schedule_reserved(SimTime at, Reservation place, EventFn action);

    /// Cancel a pending event. Returns false if the event already ran,
    /// was already cancelled, or the id is unknown/stale.
    bool cancel(EventId id);

    /// Run events until the queue is empty or `stop()` is called.
    void run();

    /// Run events with a timestamp <= `until`. The clock is left at
    /// `until` even if the queue empties earlier.
    void run_until(SimTime until);

    /// Request that the current run()/run_until() stops after the event
    /// being processed returns.
    void stop() { stopped_ = true; }

    std::size_t pending() const { return live_events_; }
    std::uint64_t processed() const { return processed_; }

    /// Simulated time at which the currently executing event was
    /// scheduled (-1 outside event execution). Lets observers reproduce
    /// the FIFO tie-break of a hypothetical event against the running one
    /// without materializing it — the backpressure-gated traffic sources
    /// use this to keep their closed-form drop accounting byte-identical
    /// to the one-event-per-packet reference.
    SimTime current_event_scheduled_at() const { return current_scheduled_at_; }

    /// Sequence number of the currently executing event (same-instant
    /// events fire in ascending sequence), or ~0 outside event execution.
    std::uint64_t current_event_seq() const { return current_event_seq_; }

    /// The sequence number the next scheduled event will receive. A
    /// hypothetical event "scheduled right here" can be tie-broken
    /// exactly against real events by snapshotting this.
    std::uint64_t next_event_seq() const { return next_seq_; }

    // --- introspection (tests and micro-benchmarks) ---
    /// Total slots ever allocated in the arena (live + recyclable).
    std::size_t arena_slots() const { return slots_.size(); }
    /// Time-index records (staged + heaped), live + stale-awaiting-drop.
    /// Bounded at O(live) by compaction even under sustained cancel churn.
    std::size_t heap_records() const { return heap_.size() + staging_.size(); }

private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    struct Slot {
        EventFn action;
        SimTime scheduled_at = 0;  ///< now() when the event was scheduled
        std::uint32_t gen = 1;
        std::uint32_t next_free = kNoSlot;
        bool armed = false;
    };

    struct HeapRecord {
        SimTime at;
        std::uint64_t seq;  // tie-break: FIFO among same-time events
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /// Min-heap order on (at, seq). A stateless function object rather
    /// than a function pointer, so the std:: heap algorithms inline it.
    struct Later {
        bool operator()(const HeapRecord& a, const HeapRecord& b) const
        {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index);
    EventId insert(SimTime at, Reservation place, EventFn action);
    bool pop_and_run_next(SimTime limit);
    void flush_staging();
    void compact_heap();

    std::vector<Slot> slots_;
    std::vector<HeapRecord> heap_;
    std::vector<HeapRecord> staging_;
    std::uint32_t free_head_ = kNoSlot;
    std::size_t stale_records_ = 0;
    SimTime now_ = 0;
    SimTime current_scheduled_at_ = -1;
    std::uint64_t current_event_seq_ = ~0ull;
    std::uint64_t next_seq_ = 0;
    std::size_t live_events_ = 0;
    std::uint64_t processed_ = 0;
    bool stopped_ = false;
};

}  // namespace ezflow::sim

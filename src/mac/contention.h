#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/units.h"

namespace ezflow::mac {

using util::SimTime;

/// A station engaged in a batched backoff countdown (implemented by
/// DcfMac). The coordinator calls back when the registered counter
/// reaches zero.
class BackoffClient {
public:
    virtual ~BackoffClient() = default;
    /// The backoff counter expired on an idle medium: transmit now.
    virtual void backoff_expired() = 0;
};

/// Per-channel backoff coordinator: collapses the classic one-event-per-
/// slot countdown (one Timer firing every slot_us for every contending
/// MAC) into one scheduler event per transmission opportunity.
///
/// register_access() fuses the DIFS wait and the backoff countdown into a
/// single registration: the MAC hands over its interframe space and its
/// remaining slot count in one call, and the coordinator owns the whole
/// idle-medium timeline — DIFS end, per-slot decrements, and the final
/// expiry — with one timer. That is one scheduler insert per contention
/// cycle instead of a DIFS timer plus a registration. When a registrant's
/// medium goes busy it calls freeze(), which consumes the decrements that
/// elapsed since registration in one batch — the same arithmetic the
/// per-slot countdown would have performed, so transmission instants and
/// Rng consumption are identical while the event count drops from
/// O(slots) to O(transmissions).
///
/// Equivalence with the per-slot reference is exact including ties. The
/// reference decrements at the *start* of each slot boundary, and a
/// transmission beginning exactly on a registrant's boundary may arrive
/// before or after that registrant's slot event depending on scheduler
/// insertion order (the scheduler breaks time ties FIFO). The coordinator
/// reproduces that order without per-slot events by keeping `entries_`
/// sorted the way the reference's pending events would fire if due at the
/// same instant:
///  * DIFS-end first (reg_at descending): a chain still inside its DIFS
///    has its pending event armed a whole interframe space back, which is
///    earlier than any ongoing chain's most recent per-slot re-arm (this
///    requires difs_us > slot_us, which register_access enforces); and a
///    chain that entered backoff later re-armed in front of older chains
///    at their first shared boundary.
///  * Among equal DIFS-ends, arming instant ascending then registration
///    order: two DIFS waits ending at the same instant fire in the order
///    their timers were armed, which is the order the reference's
///    scheduler would pop them.
///  * expiries due at the same instant fire in `entries_` order, and a
///    registrant frozen by an earlier-firing registrant counts the
///    boundary decrement exactly when it precedes the transmitter in
///    that order.
///  * transmissions that do not come from a coordinator expiry announce
///    themselves via begin_external_tx(late_trigger): a SIFS-timed frame
///    (ACK/CTS, or data following a CTS) was scheduled *after* the
///    registrants' virtual slot re-arm one slot earlier, so at an exact
///    boundary tie the reference would have decremented first
///    (late_trigger = true); a transmission whose trigger was armed at
///    least one slot back preempts the decrement (late_trigger = false).
class ContentionCoordinator {
public:
    explicit ContentionCoordinator(sim::Scheduler& scheduler);
    ContentionCoordinator(const ContentionCoordinator&) = delete;
    ContentionCoordinator& operator=(const ContentionCoordinator&) = delete;

    /// The shard's scheduler, which every registrant's timers share.
    sim::Scheduler& scheduler() const { return scheduler_; }

    /// Fused DIFS + backoff registration: the medium just went idle (or
    /// the MAC re-entered the access procedure) and the interframe space
    /// of `difs_us` begins now. `backoff_slots` is the full remaining
    /// counter: the first decrement is owed at DIFS end (exactly when the
    /// per-slot reference decrements inside its DIFS-end event), one more
    /// per subsequent slot boundary, and backoff_expired() fires at
    /// now + difs_us + backoff_slots * slot_us — immediately at DIFS end
    /// when the counter is zero. freeze() reports every decrement that
    /// happened, DIFS-end one included; a freeze before DIFS end consumes
    /// nothing. Requires difs_us > slot_us (the tie-order argument above
    /// relies on it). Throws if `client` is already registered.
    void register_access(BackoffClient& client, SimTime difs_us, int backoff_slots,
                         SimTime slot_us);

    /// The client's medium went busy: consume the decrements that elapsed
    /// since registration (batch decrement) and unregister. Returns the
    /// number of decrements; the client subtracts it from its remaining
    /// count. Throws if `client` is not registered.
    int freeze(BackoffClient& client);

    /// Drop a registration without slot accounting (client teardown).
    void unregister(BackoffClient& client);

    bool is_registered(const BackoffClient& client) const;

    /// The registered expiry instant of `client`, or -1 when it is not
    /// registered. For a frozen-then-rearmed chain this is the instant
    /// currently committed; it can only move later, never earlier (a busy
    /// medium postpones an expiry, nothing advances one).
    SimTime registered_expiry(const BackoffClient& client) const;

    /// Bracket a transmission that is not driven by a coordinator expiry
    /// (SIFS-timed control frames, data after CTS) so that freezes caused
    /// by its busy cascade resolve exact slot-boundary ties the way the
    /// per-slot reference would (see the class comment). `late_trigger`:
    /// the event that triggered this transmission was scheduled less than
    /// one slot before now.
    void begin_external_tx(bool late_trigger);
    void end_external_tx();

    /// Currently registered contenders (DIFS phase included).
    std::size_t contenders() const { return entries_.size(); }
    /// Total decrements consumed through batched freezes (stats).
    std::uint64_t slots_batched() const { return slots_batched_; }
    /// Total backoff expiries delivered (stats).
    std::uint64_t expiries() const { return expiries_; }

private:
    struct Entry {
        BackoffClient* client;
        SimTime reg_at;     ///< DIFS end: the first decrement is owed here
        SimTime armed;      ///< when the pending DIFS-end event was armed
        std::uint64_t seq;  ///< registration order, ties in (reg_at, armed)
        SimTime slot;       ///< slot duration, microseconds
        int owed;           ///< decrements owed: at reg_at, then one per slot
        SimTime expiry;     ///< fire instant: reg_at + owed * slot
    };

    void insert_entry(Entry entry);
    void on_timer();
    /// Re-aim the single timer at the earliest registered expiry (or
    /// disarm when no one is registered). No-op while the due-expiry
    /// loop runs — it re-arms once, after the last due entry fired.
    ///
    /// Arming is two-phase to preserve the scheduler's FIFO tie order
    /// against the per-slot reference: the reference arms the event that
    /// transmits at X during the slot boundary at X - slot, so an event
    /// armed earlier (a DIFS, a SIFS response) due at the same instant X
    /// fires first. The coordinator therefore wakes once at X - slot (the
    /// stage event) and only then arms the expiry event for X, giving it
    /// the same insertion point the reference's final slot event had.
    void rearm();
    std::size_t find_index(const BackoffClient& client) const;
    void erase_at(std::size_t index);
    /// Whether `entry`'s virtual event at the current instant would have
    /// fired before the transmission that is interrupting it.
    bool precedes_transmitter(std::size_t index) const;

    sim::Scheduler& scheduler_;
    sim::Timer timer_;
    std::vector<Entry> entries_;  ///< virtual pending-event fire order
    std::uint64_t next_seq_ = 0;
    SimTime armed_at_ = -1;     ///< pending wake-up instant (-1: none)
    bool armed_final_ = false;  ///< armed at an expiry (else at its stage)
    const BackoffClient* firing_ = nullptr;
    int external_depth_ = 0;
    bool external_late_ = false;
    bool in_fire_ = false;
    std::uint64_t slots_batched_ = 0;
    std::uint64_t expiries_ = 0;
};

}  // namespace ezflow::mac

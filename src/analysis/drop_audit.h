#pragma once

#include <cstdint>
#include <string>

#include "analysis/experiment.h"

namespace ezflow::analysis {

/// The end-to-end packet ledger of one finished (or frozen) experiment:
/// every generated packet must sit in exactly one bucket. Collected by
/// audit_drop_accounting and exposed for tests and reports.
struct DropLedger {
    /// Always false now that every audit runs; the ladder's checks still call it.
    bool skipped() const { return false; }

    std::uint64_t generated = 0;          ///< source generations (all flows)
    std::uint64_t dropped_at_source = 0;  ///< refused at the full own-queue
    std::uint64_t delivered = 0;          ///< reached a destination node
    std::uint64_t forward_queue_drops = 0;
    std::uint64_t retry_drops = 0;       ///< abandoned at the MAC retry limit
    std::uint64_t drops_node_down = 0;   ///< queue flushes + refused sends at dead nodes
    std::uint64_t drops_unroutable = 0;  ///< no next hop (suspension / repair window)
    std::uint64_t pacer_drops = 0;       ///< lost in a paced queue (full, or MAC refused)
    std::uint64_t backlog = 0;           ///< still queued (MAC or pacer) when the run froze
    /// Accounted instances (the right-hand side of the partition).
    std::uint64_t accounted() const
    {
        return dropped_at_source + delivered + forward_queue_drops + retry_drops +
               drops_node_down + drops_unroutable + pacer_drops + backlog;
    }
    /// Legitimate over-count allowance: a packet can be counted twice when
    /// its data was decoded but the sender never saw an ACK — the sender's
    /// retry_drop coexists with the receiver's progression (a clone). A
    /// run frozen mid-exchange holds one such half-open dialogue per MPDU
    /// in flight, and a node-down quiesce that cut dialogues short
    /// (teardown_aborts) flushed possibly-decoded MPDUs the same way.
    std::uint64_t clone_allowance = 0;
    std::uint64_t dup_rx_suppressed = 0;  ///< diagnostic: clones usually match these
};

/// Sum the ledger over every source, node, MAC, interface queue and
/// paced queue of the experiment's network.
DropLedger collect_drop_ledger(Experiment& experiment);

/// Verify the loss partition:
///   generated <= accounted() <= generated + clone_allowance
/// plus the exact local conservation laws (per interface queue:
/// enqueued == dequeued + dropped_node_down + size; per MAC:
/// dequeued == successes + retry_drops + ampdu_pending +
/// ampdu_node_down_drops — the last two count A-MPDU MPDUs dequeued at
/// batch fill that have not settled on the air).
/// Throws std::logic_error naming the violated invariant.
/// Experiment::run_until_s calls it at the end of every run.
DropLedger audit_drop_accounting(Experiment& experiment);

}  // namespace ezflow::analysis

#include "analysis/drop_audit.h"

#include <sstream>
#include <stdexcept>

namespace ezflow::analysis {

namespace {

[[noreturn]] void fail(const std::string& what, std::uint64_t lhs, std::uint64_t rhs)
{
    std::ostringstream out;
    out << "drop audit: " << what << " (" << lhs << " vs " << rhs << ")";
    throw std::logic_error(out.str());
}

}  // namespace

DropLedger collect_drop_ledger(Experiment& experiment)
{
    DropLedger ledger;
    for (const auto& source : experiment.sources()) {
        const traffic::CbrSource::Stats& stats = source->stats();
        ledger.generated += stats.generated;
        ledger.dropped_at_source += stats.dropped_at_source;
    }
    net::Network& network = experiment.network();
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        const net::Node& node = network.node(id);
        ledger.delivered += node.delivered();
        ledger.forward_queue_drops += node.forward_queue_drops();
        ledger.drops_node_down += node.drops_node_down();
        ledger.drops_unroutable += node.drops_unroutable();
        ledger.retry_drops += node.mac().retry_drops();
        ledger.dup_rx_suppressed += node.mac().dup_rx_suppressed();
        // Dequeued MPDUs flushed out of a quiesced sender window leave
        // through the node-down bucket; dequeued but unsettled MPDUs and
        // reorder-parked receptions are in-flight backlog, exactly like
        // queued packets.
        ledger.drops_node_down += node.mac().ampdu_node_down_drops();
        ledger.backlog += node.mac().ampdu_pending() + node.reorder_buffered();
        // Every MPDU of a frozen batch in flight is a half-open dialogue
        // (it may already be decoded and progressed at the receiver), and
        // so is every MPDU whose dialogue a node-down quiesce cut short.
        ledger.clone_allowance += node.mac().in_flight_mpdus() + node.mac().teardown_aborts();
        if (const core::PacedEzFlowAgent* pacer = experiment.paced_agent(id)) {
            ledger.pacer_drops += pacer->drops();
            ledger.backlog += pacer->held();
        }
        for (const auto& queue : node.mac().queues().queues()) {
            ledger.drops_node_down += queue->dropped_node_down();
            ledger.backlog += static_cast<std::uint64_t>(queue->size());
        }
    }
    // Every clone requires a retry_drop of an already-progressed packet.
    ledger.clone_allowance += ledger.retry_drops;
    return ledger;
}

DropLedger audit_drop_accounting(Experiment& experiment)
{
    net::Network& network = experiment.network();
    // Exact local conservation first: it localizes a leak to one queue or
    // MAC before the end-to-end partition smears it across the network.
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        const net::Node& node = network.node(id);
        std::uint64_t dequeued = 0;
        for (const auto& queue : node.mac().queues().queues()) {
            const std::uint64_t kept = queue->dequeued() + queue->dropped_node_down() +
                                       static_cast<std::uint64_t>(queue->size());
            if (queue->enqueued() != kept) fail("queue conservation", queue->enqueued(), kept);
            dequeued += queue->dequeued();
        }
        // One settlement law for every batch: each dequeued packet was
        // acked, retry-dropped, is still in flight, or was flushed by a
        // teardown. A lone MPDU leaves its queue when it settles, an
        // A-MPDU batch at fill — ampdu_pending and ampdu_node_down_drops
        // count only dequeued MPDUs, so the law is exact either way.
        const std::uint64_t settled = node.mac().successes() + node.mac().retry_drops() +
                                      node.mac().ampdu_pending() +
                                      node.mac().ampdu_node_down_drops();
        if (dequeued != settled) fail("MAC settlement", dequeued, settled);
    }

    DropLedger ledger = collect_drop_ledger(experiment);
    const std::uint64_t accounted = ledger.accounted();
    if (accounted < ledger.generated) fail("packet leak", ledger.generated, accounted);
    if (accounted > ledger.generated + ledger.clone_allowance)
        fail("packet double-count beyond clone allowance",
             ledger.generated + ledger.clone_allowance, accounted);
    return ledger;
}

}  // namespace ezflow::analysis

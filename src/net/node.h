#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mac/dcf.h"
#include "net/packet.h"
#include "net/routing.h"
#include "phy/phy.h"

namespace ezflow::net {

/// A mesh node: one radio (PHY + DCF MAC) plus the forwarding plane.
///
/// Received data packets addressed to this node are either delivered to the
/// local sink (end of path) or re-enqueued toward the flow's next hop, in
/// the per-successor forwarding queue the paper prescribes. Locally
/// generated traffic uses a separate "own traffic" queue so forwarded
/// packets are never starved by the source role (Section 3.1).
class Node final : public mac::MacCallbacks {
public:
    using DeliveryHandler = std::function<void(const Packet&)>;
    using SniffHandler = std::function<void(const phy::Frame&)>;
    using FirstTxHandler = std::function<void(const mac::QueueKey&, const Packet&)>;
    /// Returns true when it consumed the packet (e.g. a routing-layer
    /// pacing queue took it instead of the MAC).
    using ForwardInterceptor = std::function<bool(const mac::QueueKey&, const Packet&)>;

    Node(NodeId id, phy::Position position, sim::Scheduler& scheduler,
         mac::ContentionCoordinator& coordinator, util::Rng rng, const mac::MacParams& mac_params,
         const RoutingTable& routing);
    Node(NodeId id, phy::Position position, sim::Scheduler& scheduler,
         mac::ContentionCoordinator& coordinator, util::Rng rng, mac::MacParams&& mac_params,
         const RoutingTable& routing) = delete;

    NodeId id() const { return id_; }
    phy::NodePhy& phy() { return phy_; }
    const phy::NodePhy& phy() const { return phy_; }
    mac::DcfMac& mac() { return mac_; }
    const mac::DcfMac& mac() const { return mac_; }

    /// Inject a locally generated packet (source role; moved into the
    /// own-traffic queue). Returns false when the queue dropped it.
    bool send(Packet packet);

    /// The MAC interface queue locally generated traffic enters, or
    /// nullptr before the first send. Backpressure-gated sources register
    /// their vacancy callbacks on it.
    mac::MacQueue* own_traffic_queue(int flow_id);

    /// Account `count` source-side drops a gated source skipped in
    /// closed form (the per-packet reference would have routed each
    /// through send() individually).
    void count_gated_source_drops(std::uint64_t count) { forwarding().source_queue_drops += count; }

    /// Upper-layer delivery for packets whose end-to-end destination is
    /// this node. Multiple handlers may subscribe (sink, meters, taps);
    /// each sees every delivered packet.
    void add_delivery_handler(DeliveryHandler handler)
    {
        hooks().delivery.push_back(std::move(handler));
    }

    /// Promiscuous observers (EZ-Flow BOE, debug taps). All registered
    /// handlers see every decoded frame not addressed to this node.
    void add_sniff_handler(SniffHandler handler) { hooks().sniffers.push_back(std::move(handler)); }
    /// Observers of first on-air transmission attempts (BOE send hook).
    void add_first_tx_handler(FirstTxHandler handler)
    {
        hooks().first_tx.push_back(std::move(handler));
    }

    /// Intercept outgoing packets (source and forwarded) before they reach
    /// the MAC. Used by the rate-pacing EZ-Flow variant (core/pacer.h).
    /// At most one interceptor can be installed.
    void set_forward_interceptor(ForwardInterceptor interceptor);

    // --- fault injection (orchestrated by Network::set_node_down/up) ---
    /// Quiesce the MAC (flushing queues into drops_node_down) and kill
    /// the radio. The caller detaches the PHY from the channel.
    void teardown();
    /// Power the radio back on and revive the MAC. The caller reattaches
    /// the PHY to the channel first.
    void revive();
    bool is_up() const { return up_; }

    // Forwarding statistics (zero at a node that never forwarded).
    std::uint64_t forwarded() const { return fwd_ ? fwd_->forwarded : 0; }
    std::uint64_t delivered() const { return fwd_ ? fwd_->delivered : 0; }
    std::uint64_t forward_queue_drops() const { return fwd_ ? fwd_->forward_queue_drops : 0; }
    std::uint64_t source_queue_drops() const { return fwd_ ? fwd_->source_queue_drops : 0; }
    /// Packets refused because this node was down (send/forward into a
    /// quiesced MAC); queue flushes count separately, per queue.
    std::uint64_t drops_node_down() const { return fwd_ ? fwd_->drops_node_down : 0; }
    /// Packets abandoned because the flow had no next hop here (flow
    /// suspended after a partition, or repair in progress).
    std::uint64_t drops_unroutable() const { return fwd_ ? fwd_->drops_unroutable : 0; }
    /// Packets parked in the per-originator reorder buffers: received out
    /// of order and awaiting their predecessors (counts as
    /// in-flight backlog for the drop audit's conservation laws).
    std::uint64_t reorder_buffered() const;

    // --- mac::MacCallbacks ---
    void mac_rx(const phy::Frame& frame, std::uint64_t ok_bits,
                std::uint32_t release_below) override;
    void mac_sniffed(const phy::Frame& frame) override;
    void mac_first_tx(const mac::QueueKey& key, const Packet& packet) override;
    /// Completions need no action here: the MAC keeps the counters.
    void mac_tx_success(const mac::QueueKey&, const Packet&) override {}
    void mac_tx_drop(const mac::QueueKey&, const Packet&) override {}

private:
    /// Deliver locally or forward toward the next hop.
    void handle_packet(const Packet& packet);
    /// Whether an installed interceptor consumed the outgoing packet.
    bool intercepted(const mac::QueueKey& key, const Packet& packet) const
    {
        return hooks_ && hooks_->interceptor && hooks_->interceptor(key, packet);
    }

    /// What upper layers hang off the node. Only sinks, agents, pacers
    /// and taps fill these, so most nodes of a large grid never allocate
    /// them.
    struct Hooks {
        std::vector<DeliveryHandler> delivery;
        std::vector<SniffHandler> sniffers;
        std::vector<FirstTxHandler> first_tx;
        ForwardInterceptor interceptor;
    };
    /// The hooks, built by the first add_* or set_forward_interceptor.
    Hooks& hooks();

    /// Per-originator reorder stream: MPDUs of one sender are released
    /// upward strictly in sequence order. `next_seq` is the
    /// lowest sequence not yet released; `held` parks out-of-order
    /// arrivals until their predecessors arrive or the sender's advertised
    /// window start (release_below) flushes past an abandoned hole.
    struct ReorderStream {
        std::uint32_t next_seq = 0;
        std::map<std::uint32_t, Packet> held;
    };
    /// The forwarding plane's state: the reorder streams and the counters.
    /// Only sources, relays and destinations touch it, so a bystander of a
    /// large grid never allocates it.
    struct Forwarding {
        std::map<NodeId, ReorderStream> reorder;
        std::uint64_t forwarded = 0;
        std::uint64_t delivered = 0;
        std::uint64_t forward_queue_drops = 0;
        std::uint64_t source_queue_drops = 0;
        std::uint64_t drops_node_down = 0;
        std::uint64_t drops_unroutable = 0;
    };
    /// The forwarding state, built by the first send, received data frame
    /// or count_gated_source_drops.
    Forwarding& forwarding();

    NodeId id_;
    bool up_ = true;
    phy::NodePhy phy_;
    mac::DcfMac mac_;
    const RoutingTable& routing_;

    std::unique_ptr<Hooks> hooks_;     ///< null until first use
    std::unique_ptr<Forwarding> fwd_;  ///< null until first use
};

// A 10k-node grid is mostly bystanders: a node's fixed footprint is the
// simulator's memory at that scale.
static_assert(sizeof(Node) <= 256, "Node must stay within 256 bytes");

}  // namespace ezflow::net

#include "net/node.h"

#include <stdexcept>
#include <utility>

namespace ezflow::net {

Node::Node(NodeId id, phy::Position position, sim::Scheduler& scheduler,
           mac::ContentionCoordinator& coordinator, util::Rng rng, const mac::MacParams& mac_params,
           const RoutingTable& routing)
    : id_(id),
      phy_(id, position, scheduler),
      mac_(phy_, coordinator, std::move(rng), mac_params),
      routing_(routing)
{
    mac_.set_callbacks(this);
}

Node::Hooks& Node::hooks()
{
    if (!hooks_) hooks_ = std::make_unique<Hooks>();
    return *hooks_;
}

Node::Forwarding& Node::forwarding()
{
    if (!fwd_) fwd_ = std::make_unique<Forwarding>();
    return *fwd_;
}

void Node::set_forward_interceptor(ForwardInterceptor interceptor)
{
    ForwardInterceptor& installed = hooks().interceptor;
    if (installed && interceptor)
        throw std::logic_error("Node::set_forward_interceptor: already installed");
    installed = std::move(interceptor);
}

bool Node::send(Packet packet)
{
    Forwarding& fwd = forwarding();
    if (!up_) {
        ++fwd.drops_node_down;
        return false;
    }
    const NodeId next = routing_.next_hop_or_none(packet.flow_id, id_);
    if (next == RoutingTable::kNoNextHop) {
        // Suspended (partitioned) flow, or repair in flight. Sources
        // check routability before generating, so this is the rare race
        // window between a repair and an already-scheduled emission.
        ++fwd.drops_unroutable;
        return false;
    }
    const mac::QueueKey key{next, /*own_traffic=*/true};
    if (intercepted(key, packet)) return true;
    const bool accepted = mac_.enqueue(key, std::move(packet));
    if (!accepted) ++fwd.source_queue_drops;
    return accepted;
}

mac::MacQueue* Node::own_traffic_queue(int flow_id)
{
    const NodeId next = routing_.next_hop_or_none(flow_id, id_);
    if (next == RoutingTable::kNoNextHop) return nullptr;
    return mac_.queues().find(mac::QueueKey{next, /*own_traffic=*/true});
}

void Node::teardown()
{
    if (!up_) return;
    up_ = false;
    // Order matters: the MAC must be quiet before the radio dies so the
    // PHY wipe never triggers busy-edge callbacks into a live state
    // machine, and queue flushes (which may wake gated sources) already
    // see the node as down.
    mac_.quiesce();
    phy_.power_off();
    // Reorder-parked MPDUs die with the node: they were received but
    // never released upward, so they leave the system through the same
    // node-down bucket as flushed queue backlog.
    if (!fwd_) return;
    for (auto& [src, stream] : fwd_->reorder) fwd_->drops_node_down += stream.held.size();
    fwd_->reorder.clear();
}

void Node::revive()
{
    if (up_) return;
    up_ = true;
    phy_.power_on();
    mac_.revive();
}

void Node::handle_packet(const Packet& packet)
{
    Forwarding& fwd = *fwd_;  // built by mac_rx, the only caller
    if (packet.dst == id_) {
        ++fwd.delivered;
        if (hooks_) {
            for (const auto& handler : hooks_->delivery) handler(packet);
        }
        return;
    }
    const NodeId next = routing_.next_hop_or_none(packet.flow_id, id_);
    if (next == RoutingTable::kNoNextHop) {
        // The flow was suspended or re-routed around this node while the
        // packet was in flight: it dies here, accounted.
        ++fwd.drops_unroutable;
        return;
    }
    ++fwd.forwarded;
    const mac::QueueKey key{next, /*own_traffic=*/false};
    if (intercepted(key, packet)) return;
    if (!mac_.enqueue(key, packet)) ++fwd.forward_queue_drops;
}

void Node::mac_rx(const phy::Frame& frame, std::uint64_t ok_bits, std::uint32_t release_below)
{
    ReorderStream& stream = forwarding().reorder[frame.tx_node];
    // Release the contiguous run the buffer holds from next_seq on.
    const auto drain = [this, &stream] {
        while (!stream.held.empty() && stream.held.begin()->first == stream.next_seq) {
            handle_packet(stream.held.begin()->second);
            stream.held.erase(stream.held.begin());
            ++stream.next_seq;
        }
    };
    // BAR-free window advance: the sender's advertised start proves every
    // lower sequence is settled there (acked or abandoned), so release
    // what we hold below it — in order — and skip the holes for good.
    // Every new MPDU sits at or above it (the frame advertises its own
    // oldest MPDU, and the scoreboard drops anything older).
    if (release_below > stream.next_seq) {
        const auto end = stream.held.lower_bound(release_below);
        for (auto it = stream.held.begin(); it != end; ++it) handle_packet(it->second);
        stream.held.erase(stream.held.begin(), end);
        stream.next_seq = release_below;
        drain();
    }
    // The new MPDUs arrive in sequence order (the scoreboard already
    // filtered duplicates). An in-order one goes straight up, followed by
    // whatever its arrival makes contiguous in the buffer; only an MPDU
    // behind a hole is parked.
    for (std::size_t i = 0; i < frame.mpdus.size() && i < 64; ++i) {
        if (((ok_bits >> i) & 1) == 0) continue;
        const phy::Mpdu& mpdu = frame.mpdus[i];
        if (mpdu.seq > stream.next_seq) {
            stream.held.emplace(mpdu.seq, mpdu.packet);
        } else if (mpdu.seq == stream.next_seq) {
            handle_packet(mpdu.packet);
            ++stream.next_seq;
            drain();
        }  // below next_seq: already released (defensive)
    }
}

std::uint64_t Node::reorder_buffered() const
{
    std::uint64_t total = 0;
    if (!fwd_) return total;
    for (const auto& [src, stream] : fwd_->reorder) total += stream.held.size();
    return total;
}

void Node::mac_sniffed(const phy::Frame& frame)
{
    if (!hooks_) return;
    for (const auto& handler : hooks_->sniffers) handler(frame);
}

void Node::mac_first_tx(const mac::QueueKey& key, const Packet& packet)
{
    if (!hooks_) return;
    for (const auto& handler : hooks_->first_tx) handler(key, packet);
}

}  // namespace ezflow::net

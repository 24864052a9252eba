#include "core/pacer.h"

#include <stdexcept>

namespace ezflow::core {

PacedQueue::PacedQueue(net::Network& network, net::NodeId node, mac::QueueKey key,
                       CaaConfig config, int capacity, util::SimTime base_interval)
    : network_(network),
      node_(node),
      key_(key),
      capacity_(capacity),
      base_interval_(base_interval),
      interval_(base_interval),
      // The CAA's cw output is reinterpreted: release interval =
      // base_interval * cw / min_cw, so Algorithm 1's doubling halves the
      // pacing rate and vice versa.
      caa_(config, [this](int cw) {
          interval_ = base_interval_ * cw / caa_.config().min_cw;
      }),
      release_timer_(sim::Timer::bind<&PacedQueue::release_one>(network.scheduler_for(node), *this))
{
    if (capacity <= 0) throw std::invalid_argument("PacedQueue: capacity must be > 0");
    if (base_interval <= 0) throw std::invalid_argument("PacedQueue: base_interval must be > 0");
}

bool PacedQueue::push(const net::Packet& packet)
{
    if (static_cast<int>(queue_.size()) >= capacity_) {
        ++dropped_;
        return false;
    }
    queue_.push_back(packet);
    schedule_release();
    return true;
}

void PacedQueue::schedule_release()
{
    if (release_timer_.armed() || queue_.empty()) return;
    release_timer_.arm_in(interval_);
}

void PacedQueue::release_one()
{
    if (queue_.empty()) return;
    const net::Packet packet = queue_.front();
    queue_.pop_front();
    ++released_;
    // Hand the packet to the MAC with the standard CWmin untouched. The
    // MAC's own 50-packet queue should stay nearly empty: the pacing
    // interval is the congestion control. A release into a full queue is
    // lost, and counted.
    if (!network_.node(node_).mac().enqueue(key_, packet)) ++release_drops_;
    schedule_release();
}

PacedEzFlowAgent::PacedEzFlowAgent(net::Network& network, net::NodeId node, Options options)
    : network_(network), node_id_(node), options_(options)
{
    BufferOccupancyEstimator::check_history(options.boe_history);
    if (options.queue_capacity <= 0)
        throw std::invalid_argument("PacedEzFlowAgent: queue_capacity must be > 0");
    if (options.base_interval <= 0)
        throw std::invalid_argument("PacedEzFlowAgent: base_interval must be > 0");
    net::Node& n = network_.node(node_id_);
    n.set_forward_interceptor([this](const mac::QueueKey& key, const net::Packet& packet) {
        return intercept(key, packet);
    });
    n.add_first_tx_handler(
        [this](const mac::QueueKey& key, const net::Packet& packet) { on_first_tx(key, packet); });
    n.add_sniff_handler([this](const phy::Frame& frame) { on_sniffed(frame); });
}

PacedEzFlowAgent::SuccessorState& PacedEzFlowAgent::ensure(net::NodeId successor,
                                                           const mac::QueueKey& key)
{
    auto it = successors_.find(successor);
    if (it != successors_.end()) return *it->second;
    auto state = std::make_unique<SuccessorState>(options_.boe_history);
    state->queue = std::make_unique<PacedQueue>(network_, node_id_, key, options_.caa,
                                                options_.queue_capacity, options_.base_interval);
    return *successors_.emplace(successor, std::move(state)).first->second;
}

bool PacedEzFlowAgent::intercept(const mac::QueueKey& key, const net::Packet& packet)
{
    SuccessorState& state = ensure(key.next_hop, key);
    state.queue->push(packet);  // drop accounting inside the queue
    return true;
}

void PacedEzFlowAgent::on_first_tx(const mac::QueueKey& key, const net::Packet& packet)
{
    ensure(key.next_hop, key).boe.on_packet_sent(packet.checksum);
}

void PacedEzFlowAgent::on_sniffed(const phy::Frame& frame)
{
    if (frame.type != phy::FrameType::kData) return;
    const auto it = successors_.find(frame.tx_node);
    if (it == successors_.end()) return;
    SuccessorState& state = *it->second;
    // Each MPDU forwarded by the successor is its own sniff opportunity
    // (the testbed monitor radio sees every MSDU).
    for (const phy::Mpdu& mpdu : frame.mpdus)
        if (const auto estimate = state.boe.on_packet_overheard(mpdu.packet.checksum))
            state.queue->on_sample(*estimate);
}

const PacedQueue* PacedEzFlowAgent::queue_toward(net::NodeId successor) const
{
    const auto it = successors_.find(successor);
    return it == successors_.end() ? nullptr : it->second->queue.get();
}

std::uint64_t PacedEzFlowAgent::held() const
{
    std::uint64_t held = 0;
    for (const auto& [successor, state] : successors_)
        held += static_cast<std::uint64_t>(state->queue->size());
    return held;
}

std::uint64_t PacedEzFlowAgent::drops() const
{
    std::uint64_t drops = 0;
    for (const auto& [successor, state] : successors_)
        drops += state->queue->dropped() + state->queue->release_drops();
    return drops;
}

std::map<net::NodeId, std::unique_ptr<PacedEzFlowAgent>> install_paced_ezflow(
    net::Network& network, const PacedEzFlowAgent::Options& options)
{
    std::map<net::NodeId, std::unique_ptr<PacedEzFlowAgent>> agents;
    for (int flow_id : network.routing_table().flow_ids()) {
        const auto& path = network.routing_table().path(flow_id);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const net::NodeId node = path[i];
            if (agents.count(node) > 0) continue;
            agents[node] = std::make_unique<PacedEzFlowAgent>(network, node, options);
        }
    }
    return agents;
}

}  // namespace ezflow::core

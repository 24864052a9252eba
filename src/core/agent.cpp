#include "core/agent.h"

#include <stdexcept>

namespace ezflow::core {

EzFlowAgent::EzFlowAgent(net::Network& network, net::NodeId node, CaaConfig config,
                         std::size_t boe_history, double sniff_loss)
    : network_(network),
      node_id_(node),
      config_(config),
      boe_history_(boe_history),
      sniff_loss_(sniff_loss),
      rng_(network.fork_rng())
{
    // Written so that NaN fails it too.
    if (!(sniff_loss >= 0.0 && sniff_loss <= 1.0))
        throw std::invalid_argument("EzFlowAgent: sniff_loss out of range");
    BufferOccupancyEstimator::check_history(boe_history);
    net::Node& n = network_.node(node_id_);
    n.add_first_tx_handler(
        [this](const mac::QueueKey& key, const net::Packet& packet) { on_first_tx(key, packet); });
    n.add_sniff_handler([this](const phy::Frame& frame) { on_sniffed(frame); });
}

EzFlowAgent::SuccessorState& EzFlowAgent::ensure_successor(net::NodeId successor)
{
    auto it = successors_.find(successor);
    if (it != successors_.end()) return *it->second;

    auto state = std::make_unique<SuccessorState>(boe_history_);
    mac::DcfMac& mac = network_.node(node_id_).mac();
    // EZ-Flow steers the CWmin of every queue feeding this successor:
    // the forwarded-traffic queue and (at nodes that are also sources)
    // the own-traffic queue share the same channel-access budget.
    state->caa = std::make_unique<ChannelAccessAdaptation>(
        config_, [successor, &mac](int cw) {
            mac.set_queue_cw_min(mac::QueueKey{successor, /*own_traffic=*/false}, cw);
            mac.set_queue_cw_min(mac::QueueKey{successor, /*own_traffic=*/true}, cw);
        });
    return *successors_.emplace(successor, std::move(state)).first->second;
}

void EzFlowAgent::on_first_tx(const mac::QueueKey& key, const net::Packet& packet)
{
    SuccessorState& state = ensure_successor(key.next_hop);
    state.boe.on_packet_sent(packet.checksum);
}

void EzFlowAgent::on_sniffed(const phy::Frame& frame)
{
    if (frame.type != phy::FrameType::kData) return;
    const auto it = successors_.find(frame.tx_node);
    if (it == successors_.end()) return;  // not one of our successors
    SuccessorState& state = *it->second;
    // The testbed BOE sniffs with a second monitor-mode radio, which sees
    // every MSDU the successor forwards — each MPDU of its data frame is
    // one sniff opportunity, with the sniff-loss ablation rolled per MPDU.
    for (const phy::Mpdu& mpdu : frame.mpdus) {
        if (sniff_loss_ > 0.0 && rng_.bernoulli(sniff_loss_)) continue;
        deliver_sample(state, mpdu.packet.checksum);
    }
}

void EzFlowAgent::deliver_sample(SuccessorState& state, std::uint16_t checksum)
{
    const std::optional<int> estimate = state.boe.on_packet_overheard(checksum);
    if (!estimate.has_value()) return;
    ++samples_delivered_;
    state.last_estimate = *estimate;
    state.caa->on_sample(*estimate);
}

int EzFlowAgent::cw_toward(net::NodeId successor) const
{
    const auto it = successors_.find(successor);
    if (it == successors_.end())
        throw std::invalid_argument("EzFlowAgent::cw_toward: unknown successor");
    return it->second->caa->cw();
}

std::map<net::NodeId, std::unique_ptr<EzFlowAgent>> install_ezflow(net::Network& network,
                                                                   const CaaConfig& config,
                                                                   std::size_t boe_history,
                                                                   double sniff_loss)
{
    std::map<net::NodeId, std::unique_ptr<EzFlowAgent>> agents;
    for (int flow_id : network.routing_table().flow_ids()) {
        const auto& path = network.routing_table().path(flow_id);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const net::NodeId node = path[i];
            if (agents.count(node) > 0) continue;
            agents[node] = std::make_unique<EzFlowAgent>(network, node, config, boe_history,
                                                         sniff_loss);
        }
    }
    return agents;
}

}  // namespace ezflow::core

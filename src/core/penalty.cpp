#include "core/penalty.h"

#include <cmath>
#include <stdexcept>

namespace ezflow::core {

std::map<net::NodeId, int> apply_penalty_policy(net::Network& network, const PenaltyConfig& config)
{
    if (config.q <= 0.0 || config.q > 1.0)
        throw std::invalid_argument("apply_penalty_policy: q must be in (0, 1]");
    if (config.relay_cw <= 0)
        throw std::invalid_argument("apply_penalty_policy: relay_cw must be > 0");

    const int source_cw = static_cast<int>(std::lround(config.relay_cw / config.q));
    std::map<net::NodeId, int> assigned;
    for (int flow_id : network.routing_table().flow_ids()) {
        const auto& path = network.routing_table().path(flow_id);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const net::NodeId node = path[i];
            const net::NodeId next = path[i + 1];
            const bool is_source = (i == 0);
            const int cw = is_source ? source_cw : config.relay_cw;
            network.node(node).mac().set_queue_cw_min(
                mac::QueueKey{next, /*own_traffic=*/is_source}, cw);
            assigned[node] = cw;
        }
    }
    return assigned;
}

}  // namespace ezflow::core

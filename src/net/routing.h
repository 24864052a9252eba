#pragma once

#include <unordered_map>
#include <vector>

#include "net/packet.h"

namespace ezflow::net {

/// Static per-flow source routing, the NOAH-equivalent the paper's
/// simulations use ("we set the routing to be static", Section 4.1; NOAH
/// agent, Section 5.1). Each flow is a fixed node path; a node's next hop
/// for a flow is the node after it on that path.
///
/// Every flow keeps its path (for setup-time consumers: traffic sources,
/// agents, recorders) and a next-hop row indexed by node id (for the
/// per-packet forwarding plane). Each mutation rewrites only the touched
/// flow's row, so a lookup is one flow lookup plus one array index and
/// const access never writes: concurrent readers (shard threads) are safe
/// as long as nobody mutates the table while they run.
class RoutingTable {
public:
    /// Returned by next_hop_or_none when there is no next hop (node ids
    /// are non-negative, so it never shadows a real one).
    static constexpr NodeId kNoNextHop = -1;

    /// Register a flow's path (>= 2 distinct non-negative node ids).
    /// Throws std::invalid_argument on a bad path or a duplicate flow id.
    void add_flow(int flow_id, std::vector<NodeId> path);

    /// Replace an existing flow's path (same validation as add_flow) and
    /// clear any suspension — the route-repair entry point. Throws for
    /// unknown flows.
    void update_flow(int flow_id, std::vector<NodeId> path);

    /// Take a flow out of service: every node answers kNoNextHop until the
    /// flow is updated or resumed. The stored path is retained so
    /// setup-time consumers (src/dst queries) keep working. Idempotent.
    void suspend_flow(int flow_id);

    /// Put a suspended flow back in service on its stored path.
    void resume_flow(int flow_id);

    /// Whether the flow is currently suspended (false for unknown flows).
    bool is_suspended(int flow_id) const;

    /// The flow's path; throws std::invalid_argument for unknown flows.
    const std::vector<NodeId>& path(int flow_id) const;

    /// All registered flow ids, ascending.
    std::vector<int> flow_ids() const;
    int flow_count() const { return static_cast<int>(flows_.size()); }

    /// Next hop of `node` for `flow_id`, or kNoNextHop when the flow is
    /// unknown or suspended, or the node is off the path or its
    /// destination.
    NodeId next_hop_or_none(int flow_id, NodeId node) const
    {
        const auto it = flows_.find(flow_id);
        if (it == flows_.end() || node < 0) return kNoNextHop;
        const std::vector<NodeId>& next = it->second.next;
        return static_cast<std::size_t>(node) < next.size()
                   ? next[static_cast<std::size_t>(node)]
                   : kNoNextHop;
    }

private:
    struct Flow {
        std::vector<NodeId> path;
        /// next[node] = successor on the path, kNoNextHop elsewhere (and
        /// everywhere while suspended).
        std::vector<NodeId> next;
        bool suspended = false;
    };

    static void validate(const std::vector<NodeId>& path);
    Flow& flow(int flow_id);  ///< throws for unknown flows
    /// Point the path's nodes at their successors / back at kNoNextHop.
    static void write_row(Flow& flow);
    static void clear_row(Flow& flow);

    std::unordered_map<int, Flow> flows_;
};

}  // namespace ezflow::net

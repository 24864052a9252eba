#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "net/packet.h"

namespace ezflow::net {

/// Static per-flow source routing, the NOAH-equivalent the paper's
/// simulations use ("we set the routing to be static", Section 4.1; NOAH
/// agent, Section 5.1). Each flow is a fixed node path; a node's next hop
/// for a flow is the node after it on that path.
///
/// This class is the *builder* and reference implementation: add_flow
/// validates paths, path()/flow_ids() serve setup-time consumers (traffic
/// sources, agents, tracers), and next_hop()/has_next_hop() answer by
/// scanning the stored path. The per-packet forwarding plane does not use
/// the scan — it goes through the compiled RoutingTable below, which is
/// rebuilt from this builder and must answer identically.
class StaticRouting {
public:
    /// Node ids a path may use: any value in [-kMaxNodeId, kMaxNodeId].
    /// Network only ever produces dense ids from 0, but the builder is
    /// usable standalone; the bound (|id| <= 2^26) keeps the compiled
    /// table's dense node axis free of overflow and of sentinel
    /// collisions for every path the builder can accept.
    static constexpr NodeId kMaxNodeId = 1 << 26;

    /// Register a flow's path (>= 2 distinct in-range nodes, no repeats).
    void add_flow(int flow_id, std::vector<NodeId> path);

    /// Replace an existing flow's path (same validation as add_flow) and
    /// clear any suspension — the route-repair entry point. Throws for
    /// unknown flows.
    void update_flow(int flow_id, std::vector<NodeId> path);

    /// Take a flow out of service: every node answers "no next hop" until
    /// the flow is updated or resumed. The stored path is retained so
    /// setup-time consumers (src/dst queries) keep working. Idempotent.
    void suspend_flow(int flow_id);

    /// Put a suspended flow back in service on its stored path.
    void resume_flow(int flow_id);

    /// Whether the flow is currently suspended (false for unknown flows).
    bool is_suspended(int flow_id) const { return suspended_.count(flow_id) > 0; }

    /// Next hop of `node` for `flow_id`. Throws for unknown flows or for
    /// nodes not on the path / the final destination.
    NodeId next_hop(int flow_id, NodeId node) const;

    /// Whether `node` appears on the flow's path before the destination.
    bool has_next_hop(int flow_id, NodeId node) const;

    const std::vector<NodeId>& path(int flow_id) const;

    /// All registered flow ids, ascending.
    std::vector<int> flow_ids() const;

    /// Bumped on every successful mutation (add/update/suspend/resume);
    /// lets compiled tables detect staleness with one integer compare per
    /// lookup.
    std::uint64_t version() const { return version_; }

    /// Bumped only when the flow set grows (add_flow). While this is
    /// stable, every version bump is a per-flow change recorded in
    /// change_log(), so a compiled table can repair the touched rows
    /// instead of recompiling every flow.
    std::uint64_t structure_version() const { return structure_version_; }

    /// One entry per update/suspend/resume, in version order. Bounded:
    /// entries with version <= change_log_floor() may have been pruned,
    /// in which case a table compiled before the floor must fall back to
    /// a full compile.
    struct FlowChange {
        std::uint64_t version;
        int flow_id;
    };
    const std::vector<FlowChange>& change_log() const { return change_log_; }
    std::uint64_t change_log_floor() const { return log_floor_; }

private:
    static std::vector<NodeId> validated(std::vector<NodeId> path);
    void record_change(int flow_id);

    std::map<int, std::vector<NodeId>> paths_;
    std::set<int> suspended_;
    std::uint64_t version_ = 0;
    std::uint64_t structure_version_ = 0;
    std::vector<FlowChange> change_log_;
    std::uint64_t log_floor_ = 0;
};

/// Compiled forwarding table: dense [flow][node] -> next_hop arrays built
/// once from a StaticRouting builder, O(1) per forwarded packet (the
/// builder's scan is O(hops) and was the per-packet hot path on large
/// topologies). Lookups lazily recompile when the builder has grown, and
/// repair *incrementally* when only existing flows changed (route repair,
/// suspension): the builder's change log names the dirty flows and only
/// those rows are rewritten — O(changed flows * stride) instead of
/// O(flows * stride). Answers and error behaviour are identical to the
/// builder's by construction (pinned by tests/routing_table_test.cpp).
class RoutingTable {
public:
    explicit RoutingTable(const StaticRouting& builder) : builder_(&builder) {}

    /// Next hop of `node` for `flow_id`; same contract as
    /// StaticRouting::next_hop (throws std::invalid_argument for unknown
    /// flows and for nodes without a successor on the path).
    NodeId next_hop(int flow_id, NodeId node) const;

    /// Same contract as StaticRouting::has_next_hop.
    bool has_next_hop(int flow_id, NodeId node) const;

    /// Next hop, or kNoNextHop when the flow is unknown or the node has
    /// no successor — one probe for callers that would otherwise pair
    /// has_next_hop with next_hop. The sentinel sits at INT_MIN, outside
    /// the [-kMaxNodeId, kMaxNodeId] domain add_flow enforces, so it can
    /// never shadow a real next hop (and the bounded domain keeps
    /// node_stride_ arithmetic overflow-free).
    static constexpr NodeId kNoNextHop = std::numeric_limits<NodeId>::min();
    NodeId next_hop_or_none(int flow_id, NodeId node) const;

    /// Compiled dimensions (testing/introspection; compile on demand).
    int flow_count() const;
    NodeId node_stride() const;

    /// Bring the compiled rows up to date with the builder now. Lookups
    /// do this lazily, which is not thread-safe: callers that share one
    /// table across threads must call it before the threads start.
    void ensure_fresh() const
    {
        if (compiled_version_ != builder_->version()) refresh();
    }

private:
    void compile() const;
    void refresh() const;
    /// Rewrite one flow's row from the builder. Returns false when the
    /// row cannot be patched in place (flow unknown to the compiled index
    /// or path uses nodes outside the compiled axis) and a full compile
    /// is required.
    bool patch_flow(int flow_id) const;
    /// Row base offset of a flow in next_, or -1 when unknown.
    std::int64_t flow_row(int flow_id) const;

    const StaticRouting* builder_;
    mutable std::uint64_t compiled_version_ = ~std::uint64_t{0};
    mutable std::uint64_t compiled_structure_version_ = ~std::uint64_t{0};
    /// Dense flow-id index over [flow_min_, flow_min_ + flow_slots_):
    /// slot_of_flow_[id - flow_min_] is the row, or -1. When flow ids are
    /// too sparse for a dense index (range much larger than count), the
    /// sorted (id, row) pairs in sparse_flows_ are binary-searched
    /// instead — O(log flows), flows are few when ids are wild.
    mutable int flow_min_ = 0;
    mutable std::int64_t flow_slots_ = 0;
    mutable std::vector<std::int32_t> slot_of_flow_;
    mutable std::vector<std::pair<int, std::int32_t>> sparse_flows_;
    /// Row-major [row * node_stride_ + (node - node_base_)] -> next hop
    /// or kNoNextHop. The base offset lets the dense axis cover whatever
    /// NodeId range the builder's paths actually use (the builder does
    /// not constrain ids; Network validates them separately).
    mutable std::vector<NodeId> next_;
    mutable NodeId node_base_ = 0;
    mutable NodeId node_stride_ = 0;
    mutable std::int32_t rows_ = 0;
};

}  // namespace ezflow::net

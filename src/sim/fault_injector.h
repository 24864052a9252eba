#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/fault_plan.h"
#include "net/network.h"
#include "net/topo_gen.h"

namespace ezflow::sim {

/// Executes a net::FaultPlan against a live Network: schedules every
/// event on the simulation clock and, when it fires, drives the graceful
/// teardown/revival through every layer (Network::set_node_down/up) plus
/// the incremental route repair that keeps traffic flowing around the
/// hole.
///
/// Semantics:
///  * Node faults are physical. Down: MAC quiesced (queues flushed into
///    drops_node_down), radio powered off and detached from the channel;
///    in-flight frames from the dying node complete at their receivers,
///    frames to it die unheard and resolve through sender retries.
///  * Link faults are administrative (routing-plane): the link is
///    removed from the repair graph and flows are steered off it, but a
///    frame already committed to the air still propagates.
///  * Repair is incremental: only flows whose current path touches a
///    dead element are recomputed — BFS over the live delivery graph
///    (same smallest-id tie-break as the topology planners), or
///    suspension when src/dst is partitioned. On revival, affected flows
///    return to their original path as soon as it is fully live again
///    (EZ-Flow re-convergence is measured against that restoration).
///
/// Determinism: all bookkeeping is event-driven on the shard scheduler;
/// same plan + same seed -> byte-identical runs at any --threads. The
/// injector requires a single-shard network (every canned connected
/// topology): repair mutates the shared routing table, which must not
/// race shard threads.
class FaultInjector {
public:
    struct Stats {
        std::uint64_t node_downs = 0;
        std::uint64_t node_ups = 0;
        std::uint64_t link_downs = 0;
        std::uint64_t link_ups = 0;
        std::uint64_t flows_rerouted = 0;   ///< repaired onto a detour
        std::uint64_t flows_suspended = 0;  ///< partitioned, taken out of service
        std::uint64_t flows_restored = 0;   ///< returned to the original path
        std::uint64_t repair_bfs_runs = 0;  ///< per-flow BFS recomputations
    };

    FaultInjector(net::Network& network, net::FaultPlan plan);
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Schedule every plan event (call once, before running). Snapshots
    /// the delivery-range topology and each flow's original path — the
    /// restoration targets.
    void arm();

    const Stats& stats() const { return stats_; }
    /// Administrative link state (true = in service). Endpoints order-free.
    bool link_is_up(net::NodeId a, net::NodeId b) const;

private:
    void apply(const net::FaultEvent& event);
    /// Re-route (or suspend) every in-service flow whose current path
    /// touches a dead node or an administratively down link.
    void repair_after_element_down();
    /// Re-examine suspended and detoured flows after a revival: restore
    /// the original path when fully live, otherwise the best live detour.
    void reconsider_after_element_up();
    /// Recompute live_ from topo_ and the current node/link state.
    void rebuild_live();
    bool path_is_live(const std::vector<net::NodeId>& path) const;
    /// net::shortest_path over live_ (same smallest-id tie-break as the
    /// planners). Empty when unreachable.
    std::vector<net::NodeId> live_path(net::NodeId src, net::NodeId dst);

    static std::pair<net::NodeId, net::NodeId> link_key(net::NodeId a, net::NodeId b)
    {
        return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    }

    net::Network& network_;
    net::FaultPlan plan_;
    bool armed_ = false;
    net::Topology topo_;  ///< delivery-range graph snapshot (arm time)
    /// topo_ minus down nodes and admin-down links (a down node keeps no
    /// neighbours and appears in no list); rebuilt on every fault event.
    net::Topology live_;
    std::vector<char> node_admin_up_;
    std::set<std::pair<net::NodeId, net::NodeId>> links_admin_down_;
    std::map<int, std::vector<net::NodeId>> original_path_;
    /// Flows not currently on their original path (detoured or
    /// suspended) — the only candidates a revival re-examines.
    std::set<int> detoured_;
    Stats stats_;
};

}  // namespace ezflow::sim

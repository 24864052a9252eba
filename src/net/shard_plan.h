#pragma once

#include <cstdint>
#include <vector>

#include "phy/frame.h"
#include "phy/geometry.h"

namespace ezflow::net {

/// Static assignment of node ids to simulation shards. A shard is a set
/// of nodes whose radio conflict edges (delivery, carrier-sense and
/// interference reach) never cross the shard boundary, so each shard can
/// run on its own Scheduler/Channel/ContentionCoordinator with no radio
/// synchronization — only timestamped wired handoffs ever cross shards.
///
/// An empty plan (shard_count == 0) means "unsharded": the Network puts
/// every node in shard 0, which is the byte-identical serial reference.
///
/// A *connected-cut* plan additionally cuts interference-only edges —
/// pairs farther apart than max(tx_range, cs_range) but within
/// interference range. Such an edge carries no decodable frame and no
/// carrier-sense energy, only SINR-ledger power, so the cut is repaired
/// at run time by mirroring every boundary node's transmissions into the
/// neighbouring shards' channels as read-only ghost signals
/// (phy::Channel::inject_ghost). `boundary_nodes` and
/// `ghost_targets_of_node` are the static wiring for that mirror layer.
struct ShardPlan {
    int shard_count = 0;
    std::vector<int> shard_of_node;  ///< dense by node id

    /// True when the plan cuts interference-only edges of a connected
    /// conflict graph; the Network must install the ghost-mirror layer.
    bool connected_cut = false;
    /// Per shard, ascending node ids with at least one cross-shard
    /// interference edge. Empty vectors when !connected_cut.
    std::vector<std::vector<int>> boundary_nodes;
    /// Per node, ascending list of foreign shards holding a neighbour
    /// within interference range (empty for interior nodes).
    std::vector<std::vector<int>> ghost_targets_of_node;

    bool empty() const { return shard_count <= 0; }
};

/// Partition `positions` into at most `max_shards` shards such that no
/// two nodes within the radio conflict radius land in different shards.
///
/// The conflict radius is max(tx_range_m, cs_range_m,
/// interference_range_m): the Channel's per-transmitter sensed and
/// in-delivery reachability sets are exactly the nodes within
/// max(cs, interference) and tx range respectively, so a partition whose
/// cut edges all exceed the conflict radius cuts no sensed or delivery
/// edge. Merging every pair within the radius — whether or not the pair
/// would actually decode each other — is the conservative side of that
/// guarantee: when in doubt (boundary distances, asymmetric ranges) nodes
/// end up in the same shard.
///
/// Connected components of that conflict graph (union-find over the
/// edges phy::GridIndex finds, O(n) expected) are packed greedily into
/// min(max_shards, components) shards balanced by node count; shard ids
/// are relabeled so shards ascend by their minimum node id, which makes
/// the assignment deterministic and independent of packing order.
///
/// A topology whose conflict graph is connected only through
/// interference-only edges (interference_range > max(tx, cs) and the
/// graph restricted to sense/delivery edges falls apart into several
/// components) is cut *through* those edges: the sense/delivery
/// components are atomic units, packed greedily by size into
/// min(max_shards, units) shards and then refined by a bounded
/// deterministic KL-style pass that moves whole units to reduce the
/// number of cut interference edges while keeping the greedy balance
/// bound (max - min load <= largest unit). The resulting plan has
/// `connected_cut` set and carries the boundary/ghost-target sets the
/// Network's mirror layer needs. Determinism and balance are preferred
/// over cut optimality.
///
/// A topology connected at the sense/delivery radius itself (every
/// uniform grid/mesh scenario with the default equal cs/interference
/// ranges) still collapses to a single shard — cutting a sensed or
/// delivery edge would reorder MAC decisions, which this planner never
/// does.
ShardPlan plan_shards(const std::vector<phy::Position>& positions, const phy::PhyParams& phy,
                      int max_shards);

}  // namespace ezflow::net

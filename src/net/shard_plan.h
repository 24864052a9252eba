#pragma once

#include <vector>

#include "phy/frame.h"
#include "phy/geometry.h"

namespace ezflow::net {

/// Static assignment of node ids to simulation shards. A shard is a set
/// of nodes whose radio conflict edges (delivery, carrier-sense and
/// interference reach) never cross the shard boundary, so each shard can
/// run on its own Scheduler/Channel/ContentionCoordinator with no
/// cross-shard dependency at all.
///
/// An empty plan (shard_count == 0) means "unsharded": the Network puts
/// every node in shard 0, which is the byte-identical serial reference.
struct ShardPlan {
    int shard_count = 0;
    std::vector<int> shard_of_node;  ///< dense by node id

    bool empty() const { return shard_count <= 0; }
};

/// Partition `positions` into at most `max_shards` shards such that no
/// two nodes within the radio conflict radius land in different shards.
///
/// The conflict radius is max(tx_range_m, cs_range_m,
/// interference_range_m): the Channel's per-transmitter sensed and
/// in-delivery reachability sets are exactly the nodes within
/// max(cs, interference) and tx range respectively, so a partition whose
/// cut edges all exceed the conflict radius cuts no sensed, delivery or
/// interference edge. Merging every pair within the radius — whether or
/// not the pair would actually decode each other — is the conservative
/// side of that guarantee: when in doubt (boundary distances, asymmetric
/// ranges, interference-only edges) nodes end up in the same shard.
///
/// Connected components of that conflict graph (union-find over the
/// edges phy::GridIndex finds, O(n) expected) are packed greedily into
/// min(max_shards, components) shards balanced by node count; shard ids
/// are relabeled so shards ascend by their minimum node id, which makes
/// the assignment deterministic and independent of packing order. A
/// connected conflict graph — every grid and mesh scenario, and clusters
/// joined only across an interference-only gap — plans to one shard.
ShardPlan plan_shards(const std::vector<phy::Position>& positions, const phy::PhyParams& phy,
                      int max_shards);

}  // namespace ezflow::net

#pragma once

#include <memory>
#include <vector>

#include "mac/contention.h"
#include "mac/mac_params.h"
#include "net/node.h"
#include "net/routing.h"
#include "net/shard_plan.h"
#include "phy/channel.h"
#include "sim/scheduler.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace ezflow::net {

/// Everything a simulation needs, wired together: scheduler, channel,
/// nodes, routing. Owns all components; nodes are addressed by dense ids
/// in creation order.
///
/// With a ShardPlan in the config the Network is space-parallel: every
/// shard owns its own Scheduler/Channel/ContentionCoordinator, nodes
/// bind to their shard's trio, and each run_until() is one epoch of
/// sim::ShardedEngine that runs every shard to the target. The plan
/// guarantees no radio edge crosses shards (see plan_shards), so shards
/// have no dependency on each other and sharded execution is
/// byte-identical to the serial reference. Without a plan (the default)
/// there is exactly one shard and execution is the serial reference
/// itself.
class Network {
public:
    struct Config {
        phy::PhyParams phy;
        mac::MacParams mac;
        std::uint64_t seed = 1;
        /// Upper bound on shards a topology generator may plan for; the
        /// generators compute `shard_plan` from this before construction.
        int max_shards = 1;
        /// Node-to-shard assignment (empty: single shard, serial
        /// reference). Must cover every node id that will be added.
        ShardPlan shard_plan;
    };

    explicit Network(Config config);
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Create a node at `position`; returns its id (dense, from 0).
    /// Throws std::invalid_argument for a NaN or infinite coordinate.
    NodeId add_node(phy::Position position);

    /// Register a static flow path. All nodes must already exist,
    /// consecutive path nodes must be within delivery range, and the
    /// whole path must stay inside one shard (radio hops cannot cross
    /// the partition).
    void add_flow(int flow_id, std::vector<NodeId> path);

    Node& node(NodeId id);
    const Node& node(NodeId id) const;
    int node_count() const { return static_cast<int>(nodes_.size()); }

    /// Shard 0's scheduler/channel/coordinator — in the unsharded case
    /// (every canned scenario) the only ones, i.e. the serial reference.
    sim::Scheduler& scheduler() { return shards_[0]->scheduler; }
    phy::Channel& channel() { return shards_[0]->channel; }
    mac::ContentionCoordinator& contention() { return shards_[0]->contention; }

    int shard_count() const { return static_cast<int>(shards_.size()); }
    int shard_of(NodeId id) const;
    sim::Scheduler& scheduler_for(NodeId id) { return shard(shard_of(id)).scheduler; }
    sim::Scheduler& shard_scheduler(int s) { return shard(s).scheduler; }
    phy::Channel& shard_channel(int s) { return shard(s).channel; }

    /// Aggregates across shards (equal to the singular accessors'
    /// counters when shard_count() == 1).
    std::uint64_t total_processed() const;
    std::uint64_t total_transmissions() const;
    std::uint64_t total_data_transmissions() const;
    std::uint64_t shard_processed(int s) const { return shard(s).scheduler.processed(); }

    /// Every flow's path and next-hop row: what each node's per-packet
    /// forwarding consults. Flows may be added after nodes; route repair
    /// (the fault injector) mutates it through the non-const overload.
    RoutingTable& routing_table() { return routing_table_; }
    const RoutingTable& routing_table() const { return routing_table_; }
    const Config& config() const { return config_; }

    /// Fork an independent RNG stream from the network's root seed
    /// (for traffic sources, agents, etc.).
    util::Rng fork_rng() { return rng_.fork(); }

    /// Set the block-ack agreement (A-MPDU batch size) in the one
    /// MacParams every MAC reads (1 = one MPDU per access, the golden-pinned
    /// default). Throws std::invalid_argument outside [1, 64], changing
    /// nothing. Call before traffic starts.
    void set_ampdu_max_mpdus(int k);

    /// Deafen `nodes` on their shards' channels (Channel::set_deaf): they
    /// hear nothing and may not transmit for the rest of the run. For
    /// nodes on no flow path of a run without faults, whose reception
    /// cannot change the outcome. Call before traffic starts.
    void set_deaf(const std::vector<NodeId>& nodes);

    /// Threads the sharded engine runs its shards on, the caller among
    /// them (<= 0: hardware concurrency). Takes effect when the engine is
    /// first built, i.e. set it before the first run_until(). No effect
    /// on results — sharded execution is deterministic for any thread
    /// count.
    void set_shard_threads(int threads) { shard_threads_ = threads; }

    /// The epoch driver; built on demand when shard_count() > 1 (null
    /// for a single shard — run_until drives the scheduler directly).
    sim::ShardedEngine* sharded_engine();

    // --- fault injection ---
    /// Graceful node teardown: quiesce the MAC (queues flush into
    /// drops_node_down, gated sources wake onto their backoff path),
    /// power off the radio, and detach it from its shard's channel —
    /// invalidating the reachability cache. In-flight frames from the
    /// dying node still complete at their receivers (the energy is on
    /// the air); frames to it die unheard. Idempotent.
    void set_node_down(NodeId id);
    /// Revival: reattach the PHY, power it on, revive the MAC. Routing
    /// repair is the fault injector's job, not Network's. Idempotent.
    void set_node_up(NodeId id);
    bool node_is_up(NodeId id) const { return node(id).is_up(); }

    /// Advance simulated time.
    void run_until(util::SimTime t);
    util::SimTime now() const { return shards_[0]->scheduler.now(); }

private:
    struct Shard {
        sim::Scheduler scheduler;
        phy::Channel channel;
        mac::ContentionCoordinator contention;
        Shard(util::Rng channel_rng, const phy::PhyParams& params)
            : channel(scheduler, std::move(channel_rng), params), contention(scheduler)
        {
        }
    };

    Shard& shard(int s);
    const Shard& shard(int s) const;

    Config config_;  ///< its `mac` is the one MacParams every MAC reads
    util::Rng rng_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<int> shard_of_;  ///< dense by node id
    RoutingTable routing_table_;
    std::vector<std::unique_ptr<Node>> nodes_;
    int shard_threads_ = 0;
    std::unique_ptr<sim::ShardedEngine> engine_;
};

}  // namespace ezflow::net

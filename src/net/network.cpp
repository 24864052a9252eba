#include "net/network.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ezflow::net {

Network::Network(Config config) : config_(std::move(config)), rng_(config_.seed)
{
    const int shard_count = config_.shard_plan.empty() ? 1 : config_.shard_plan.shard_count;
    // Successive forks of one channel-RNG root: shard 0 receives the
    // first fork, which is exactly the serial reference's channel stream,
    // so an unsharded Network is byte-identical to the pre-shard build.
    util::Rng channel_root(config_.seed ^ 0xC0FFEEULL);
    shards_.reserve(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s)
        shards_.push_back(std::make_unique<Shard>(channel_root.fork(), config_.phy));
}

void Network::set_ampdu_max_mpdus(int k)
{
    if (k < 1 || k > mac::kMaxAmpduMpdus)
        throw std::invalid_argument("Network::set_ampdu_max_mpdus: batch size outside [1, 64]");
    config_.mac.ampdu_max_mpdus = k;
}

void Network::set_deaf(const std::vector<NodeId>& nodes)
{
    for (const NodeId id : nodes) shard(shard_of(id)).channel.set_deaf(node(id).phy());
}

NodeId Network::add_node(phy::Position position)
{
    if (!std::isfinite(position.x) || !std::isfinite(position.y))
        throw std::invalid_argument("Network::add_node: non-finite position");
    const NodeId id = static_cast<NodeId>(nodes_.size());
    int target = 0;
    if (!config_.shard_plan.empty()) {
        const auto& plan = config_.shard_plan.shard_of_node;
        if (static_cast<std::size_t>(id) >= plan.size())
            throw std::invalid_argument("Network::add_node: node id beyond the shard plan");
        target = plan[static_cast<std::size_t>(id)];
        if (target < 0 || target >= shard_count())
            throw std::invalid_argument("Network::add_node: shard plan names a bad shard");
    }
    Shard& home = *shards_[static_cast<std::size_t>(target)];
    nodes_.push_back(std::make_unique<Node>(id, position, home.scheduler, home.contention,
                                            rng_.fork(), config_.mac, routing_table_));
    shard_of_.push_back(target);
    home.channel.attach(nodes_.back()->phy());
    return id;
}

void Network::add_flow(int flow_id, std::vector<NodeId> path)
{
    for (NodeId n : path) {
        if (n < 0 || n >= node_count())
            throw std::invalid_argument("Network::add_flow: unknown node");
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const double d =
            phy::distance(node(path[i]).phy().position(), node(path[i + 1]).phy().position());
        if (d > config_.phy.tx_range_m)
            throw std::invalid_argument(
                "Network::add_flow: consecutive hops out of delivery range");
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (shard_of(path[i]) != shard_of(path[i + 1]))
            throw std::invalid_argument(
                "Network::add_flow: path crosses a shard boundary (a radio path must stay "
                "inside one shard)");
    }
    routing_table_.add_flow(flow_id, std::move(path));
}

Node& Network::node(NodeId id)
{
    if (id < 0 || id >= node_count()) throw std::out_of_range("Network::node: bad id");
    return *nodes_[static_cast<std::size_t>(id)];
}

const Node& Network::node(NodeId id) const
{
    if (id < 0 || id >= node_count()) throw std::out_of_range("Network::node: bad id");
    return *nodes_[static_cast<std::size_t>(id)];
}

int Network::shard_of(NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= shard_of_.size())
        throw std::out_of_range("Network::shard_of: bad id");
    return shard_of_[static_cast<std::size_t>(id)];
}

std::uint64_t Network::total_processed() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->scheduler.processed();
    return total;
}

std::uint64_t Network::total_transmissions() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->channel.transmissions();
    return total;
}

std::uint64_t Network::total_data_transmissions() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->channel.data_transmissions();
    return total;
}

void Network::set_node_down(NodeId id)
{
    Node& n = node(id);
    if (!n.is_up()) return;
    // MAC quiesced and radio wiped first, then the channel forgets the
    // PHY; in-flight end events keep their pooled records (frame and
    // receiver list) and drain as tolerated no-ops at the dead PHY.
    n.teardown();
    shard(shard_of(id)).channel.detach(n.phy());
}

void Network::set_node_up(NodeId id)
{
    Node& n = node(id);
    if (n.is_up()) return;
    shard(shard_of(id)).channel.attach(n.phy());
    n.revive();
}

sim::ShardedEngine* Network::sharded_engine()
{
    if (shard_count() <= 1) return nullptr;
    if (!engine_) {
        std::vector<sim::Scheduler*> schedulers;
        schedulers.reserve(shards_.size());
        for (const auto& shard : shards_) schedulers.push_back(&shard->scheduler);
        engine_ = std::make_unique<sim::ShardedEngine>(std::move(schedulers), shard_threads_);
    }
    return engine_.get();
}

void Network::run_until(util::SimTime t)
{
    if (shard_count() == 1) {
        shards_[0]->scheduler.run_until(t);
        return;
    }
    sharded_engine()->run_until(t);
}

Network::Shard& Network::shard(int s)
{
    if (s < 0 || s >= shard_count()) throw std::out_of_range("Network::shard: bad shard");
    return *shards_[static_cast<std::size_t>(s)];
}

const Network::Shard& Network::shard(int s) const
{
    if (s < 0 || s >= shard_count()) throw std::out_of_range("Network::shard: bad shard");
    return *shards_[static_cast<std::size_t>(s)];
}

}  // namespace ezflow::net

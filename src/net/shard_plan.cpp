#include "net/shard_plan.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace ezflow::net {
namespace {

/// Union-find with path halving + union by size.
class UnionFind {
public:
    explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1)
    {
        for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
    }

    int find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b) return;
        if (size_[a] < size_[b]) std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
    }

private:
    std::vector<int> parent_;
    std::vector<int> size_;
};

struct Component {
    int min_id;
    int size;
};

/// Greedy balanced packing: biggest components first (ties by min id for
/// determinism), each into the currently lightest shard. Guarantees
/// max load - min load <= largest component (when a unit lands in the
/// lightest shard, that shard's new load exceeds no other shard's final
/// load by more than the unit; loads only grow).
std::vector<int> pack_greedy(const std::vector<Component>& comps, int shard_count)
{
    std::vector<int> order(comps.size());
    for (std::size_t u = 0; u < comps.size(); ++u) order[u] = static_cast<int>(u);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const Component& ca = comps[static_cast<std::size_t>(a)];
        const Component& cb = comps[static_cast<std::size_t>(b)];
        if (ca.size != cb.size) return ca.size > cb.size;
        return ca.min_id < cb.min_id;
    });
    std::vector<std::int64_t> load(static_cast<std::size_t>(shard_count), 0);
    std::vector<int> shard_of_unit(comps.size(), -1);
    for (int u : order) {
        int lightest = 0;
        for (int s = 1; s < shard_count; ++s)
            if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(lightest)])
                lightest = s;
        load[static_cast<std::size_t>(lightest)] += comps[static_cast<std::size_t>(u)].size;
        shard_of_unit[static_cast<std::size_t>(u)] = lightest;
    }
    return shard_of_unit;
}

/// Relabel shards so they ascend by their minimum node id: the result is
/// independent of the packing order.
std::vector<int> relabel_by_min_node(const std::vector<int>& shard_of_node_raw, int shard_count)
{
    std::vector<int> min_id_of_shard(static_cast<std::size_t>(shard_count),
                                     std::numeric_limits<int>::max());
    for (std::size_t i = 0; i < shard_of_node_raw.size(); ++i) {
        const int raw = shard_of_node_raw[i];
        min_id_of_shard[static_cast<std::size_t>(raw)] =
            std::min(min_id_of_shard[static_cast<std::size_t>(raw)], static_cast<int>(i));
    }
    std::vector<int> rank(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s) rank[static_cast<std::size_t>(s)] = s;
    std::sort(rank.begin(), rank.end(), [&](int a, int b) {
        return min_id_of_shard[static_cast<std::size_t>(a)] <
               min_id_of_shard[static_cast<std::size_t>(b)];
    });
    std::vector<int> relabel(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s)
        relabel[static_cast<std::size_t>(rank[static_cast<std::size_t>(s)])] = s;
    return relabel;
}

}  // namespace

ShardPlan plan_shards(const std::vector<phy::Position>& positions, const phy::PhyParams& phy,
                      int max_shards)
{
    const int n = static_cast<int>(positions.size());
    ShardPlan plan;
    if (n == 0 || max_shards <= 1) return plan;  // empty plan: serial reference

    // Every conflict edge joins its endpoints. The conflict radius is the
    // bound the Channel's reachability cull and interference ledger use:
    // beyond it a node contributes neither delivery, carrier sense, nor
    // ledger energy, so cutting there is conflict-free.
    const phy::GridIndex index(positions, phy.conflict_radius_m());
    UnionFind conflict(static_cast<std::size_t>(n));
    std::vector<int> near;
    for (int i = 0; i < n; ++i) {
        index.within(positions[i], near);
        for (int j : near)
            if (j > i) conflict.unite(i, j);
    }

    // Components become units numbered by min node id — the deterministic
    // packing order. Ascending ids meet each component first at its min id.
    std::vector<Component> comps;
    std::vector<int> unit_of_root(static_cast<std::size_t>(n), -1);
    std::vector<int> unit_of_node(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        int& unit = unit_of_root[static_cast<std::size_t>(conflict.find(i))];
        if (unit < 0) {
            unit = static_cast<int>(comps.size());
            comps.push_back({i, 0});
        }
        ++comps[static_cast<std::size_t>(unit)].size;
        unit_of_node[static_cast<std::size_t>(i)] = unit;
    }
    const int shard_count = std::min<int>(max_shards, static_cast<int>(comps.size()));
    const std::vector<int> shard_of_unit = pack_greedy(comps, shard_count);

    std::vector<int> shard_of_node_raw(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        shard_of_node_raw[static_cast<std::size_t>(i)] =
            shard_of_unit[static_cast<std::size_t>(unit_of_node[static_cast<std::size_t>(i)])];
    const std::vector<int> relabel = relabel_by_min_node(shard_of_node_raw, shard_count);

    plan.shard_count = shard_count;
    plan.shard_of_node.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        plan.shard_of_node[static_cast<std::size_t>(i)] =
            relabel[static_cast<std::size_t>(shard_of_node_raw[static_cast<std::size_t>(i)])];
    return plan;
}

}  // namespace ezflow::net

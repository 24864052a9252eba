#include "net/shard_plan.h"

#include <algorithm>
#include <limits>
#include <map>
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
std::vector<int> pack_greedy(const std::vector<Component>& comps, int shard_count,
                             std::vector<std::int64_t>& load)
{
    std::vector<int> order(comps.size());
    for (std::size_t u = 0; u < comps.size(); ++u) order[u] = static_cast<int>(u);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const Component& ca = comps[static_cast<std::size_t>(a)];
        const Component& cb = comps[static_cast<std::size_t>(b)];
        if (ca.size != cb.size) return ca.size > cb.size;
        return ca.min_id < cb.min_id;
    });
    load.assign(static_cast<std::size_t>(shard_count), 0);
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
/// independent of the packing/refinement visit order.
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

    // Within radius_hard an edge may carry decodable frames or carrier-
    // sense energy, whose event order is irreducible — such edges are
    // never cut. Between radius_hard and the conflict radius an edge is
    // interference-only (pure SINR-ledger power): cuttable, repaired at
    // run time by ghost mirroring.
    const double radius_hard = std::max(phy.tx_range_m, phy.cs_range_m);

    // Every conflict edge, each pair once. The conflict radius is the bound
    // the Channel's reachability cull and interference ledger use: beyond
    // it a node contributes neither delivery, carrier sense, nor ledger
    // energy, so cutting there is conflict-free.
    const phy::GridIndex index(positions, phy.conflict_radius_m());
    UnionFind hard(static_cast<std::size_t>(n));
    std::vector<std::pair<int, int>> soft_pairs;  // interference-only edges
    std::vector<int> near;
    for (int i = 0; i < n; ++i) {
        index.within(positions[i], near);
        for (int j : near) {
            if (j <= i) continue;
            if (phy::distance(positions[i], positions[j]) <= radius_hard)
                hard.unite(i, j);
            else
                soft_pairs.push_back({i, j});
        }
    }

    // An interference-only edge joining two hard components is what makes
    // a connected cut possible (and necessary). Without any, the hard
    // components coincide with the full conflict components and the plan
    // below reduces to the original edge-free partition.
    bool cross_component = false;
    for (const auto& [i, j] : soft_pairs) {
        if (hard.find(i) != hard.find(j)) {
            cross_component = true;
            break;
        }
    }

    // Hard components become units numbered by min node id — the
    // deterministic order for packing and refinement. Ascending ids meet
    // each component first at its min id.
    std::vector<Component> comps;
    std::vector<int> unit_of_root(static_cast<std::size_t>(n), -1);
    std::vector<int> unit_of_node(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        int& unit = unit_of_root[static_cast<std::size_t>(hard.find(i))];
        if (unit < 0) {
            unit = static_cast<int>(comps.size());
            comps.push_back({i, 0});
        }
        ++comps[static_cast<std::size_t>(unit)].size;
        unit_of_node[static_cast<std::size_t>(i)] = unit;
    }
    const int units = static_cast<int>(comps.size());
    const int shard_count = std::min<int>(max_shards, units);

    std::vector<std::int64_t> load;
    std::vector<int> shard_of_unit = pack_greedy(comps, shard_count, load);

    if (cross_component && shard_count > 1) {
        // Bounded deterministic KL-style refinement: move whole units to
        // the shard they have the most interference edges into, as long
        // as the move strictly reduces the cut and keeps the greedy
        // balance bound (max - min load <= largest unit). Units are
        // visited in ascending min-node-id order and ties prefer the
        // lowest target shard, so the outcome is independent of any
        // container iteration quirks.
        std::map<std::pair<int, int>, std::int64_t> weight;  // (unit, unit) -> edges
        for (const auto& [i, j] : soft_pairs) {
            const int a = unit_of_node[static_cast<std::size_t>(i)];
            const int b = unit_of_node[static_cast<std::size_t>(j)];
            if (a != b) ++weight[{std::min(a, b), std::max(a, b)}];
        }
        std::vector<std::vector<std::pair<int, std::int64_t>>> adjacency(
            static_cast<std::size_t>(units));
        for (const auto& [edge, w] : weight) {
            adjacency[static_cast<std::size_t>(edge.first)].push_back({edge.second, w});
            adjacency[static_cast<std::size_t>(edge.second)].push_back({edge.first, w});
        }
        std::int64_t largest = 0;
        for (const Component& comp : comps) largest = std::max<std::int64_t>(largest, comp.size);
        const auto balanced = [&](const std::vector<std::int64_t>& candidate) {
            const auto [lo, hi] = std::minmax_element(candidate.begin(), candidate.end());
            return *hi - *lo <= largest;
        };
        constexpr int kMaxPasses = 8;
        for (int pass = 0; pass < kMaxPasses; ++pass) {
            bool moved = false;
            for (int u = 0; u < units; ++u) {
                const int s = shard_of_unit[static_cast<std::size_t>(u)];
                const std::int64_t size = comps[static_cast<std::size_t>(u)].size;
                if (load[static_cast<std::size_t>(s)] == size) continue;  // never empty a shard
                std::vector<std::int64_t> to_shard(static_cast<std::size_t>(shard_count), 0);
                for (const auto& [v, w] : adjacency[static_cast<std::size_t>(u)])
                    to_shard[static_cast<std::size_t>(shard_of_unit[static_cast<std::size_t>(v)])] +=
                        w;
                int best_target = -1;
                std::int64_t best_gain = 0;
                for (int t = 0; t < shard_count; ++t) {
                    if (t == s) continue;
                    const std::int64_t gain = to_shard[static_cast<std::size_t>(t)] -
                                              to_shard[static_cast<std::size_t>(s)];
                    if (gain <= best_gain) continue;  // strict: first best target wins ties
                    std::vector<std::int64_t> candidate = load;
                    candidate[static_cast<std::size_t>(s)] -= size;
                    candidate[static_cast<std::size_t>(t)] += size;
                    if (!balanced(candidate)) continue;
                    best_target = t;
                    best_gain = gain;
                }
                if (best_target < 0) continue;
                load[static_cast<std::size_t>(s)] -= size;
                load[static_cast<std::size_t>(best_target)] += size;
                shard_of_unit[static_cast<std::size_t>(u)] = best_target;
                moved = true;
            }
            if (!moved) break;
        }
    }

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

    // Boundary/ghost-target wiring: every cut edge is interference-only
    // by construction (hard components are atomic), so each endpoint
    // mirrors into the other's shard.
    plan.boundary_nodes.assign(static_cast<std::size_t>(shard_count), {});
    plan.ghost_targets_of_node.assign(static_cast<std::size_t>(n), {});
    bool any_cut = false;
    for (const auto& [i, j] : soft_pairs) {
        const int si = plan.shard_of_node[static_cast<std::size_t>(i)];
        const int sj = plan.shard_of_node[static_cast<std::size_t>(j)];
        if (si == sj) continue;
        any_cut = true;
        plan.ghost_targets_of_node[static_cast<std::size_t>(i)].push_back(sj);
        plan.ghost_targets_of_node[static_cast<std::size_t>(j)].push_back(si);
        plan.boundary_nodes[static_cast<std::size_t>(si)].push_back(i);
        plan.boundary_nodes[static_cast<std::size_t>(sj)].push_back(j);
    }
    if (any_cut) {
        plan.connected_cut = true;
        for (auto& list : plan.boundary_nodes) {
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
        }
        for (auto& list : plan.ghost_targets_of_node) {
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
        }
    } else {
        plan.boundary_nodes.clear();
        plan.ghost_targets_of_node.clear();
    }
    return plan;
}

}  // namespace ezflow::net

#include "net/topo_gen.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/shard_plan.h"
#include "util/rng.h"

namespace ezflow::net {

namespace {

/// The i-th of `count` indices spread evenly over [0, extent), biased to
/// the interior (count == 1 picks the middle) so crossing flows meet at
/// interior relays instead of hugging the lattice rim.
int spread_index(int i, int count, int extent)
{
    if (extent <= 1) return 0;
    const int index = ((i + 1) * extent) / (count + 1);
    return std::min(index, extent - 1);
}

/// Instantiate a planned topology as a live, unlabelled Network. When the
/// config allows more than one shard, the planner partitions the layout
/// along the radio conflict graph before construction (a connected
/// topology still collapses to a single shard — the serial reference).
Scenario instantiate(const Topology& topo, Network::Config config)
{
    if (config.max_shards > 1 && config.shard_plan.empty())
        config.shard_plan = plan_shards(topo.positions, config.phy, config.max_shards);
    Scenario scenario;
    scenario.network = std::make_unique<Network>(std::move(config));
    for (const phy::Position& position : topo.positions) scenario.network->add_node(position);
    return scenario;
}

/// default_config with a GridSpec's or ClustersSpec's ranges (<= 0 keeps
/// the default) and shard budget.
template <typename Spec>
Network::Config grid_config(const Spec& spec, std::uint64_t seed)
{
    Network::Config config = default_config(seed);
    if (spec.tx_range_m > 0) config.phy.tx_range_m = spec.tx_range_m;
    if (spec.cs_range_m > 0) config.phy.cs_range_m = spec.cs_range_m;
    if (spec.interference_range_m > 0)
        config.phy.interference_range_m = spec.interference_range_m;
    config.max_shards = spec.max_shards;
    return config;
}

/// Convergecast source candidates: the far row and far column (the rim
/// opposite the gateway at node 0), farthest-first so small source
/// counts pick the deep corner region. Local (single-grid) node ids.
std::vector<NodeId> convergecast_rim(int cols, int rows)
{
    std::vector<NodeId> rim;
    for (int c = cols - 1; c >= 0; --c) rim.push_back((rows - 1) * cols + c);
    for (int r = rows - 2; r >= 1; --r) rim.push_back(r * cols + (cols - 1));
    std::stable_sort(rim.begin(), rim.end(), [cols](NodeId a, NodeId b) {
        const int da = a / cols + a % cols;
        const int db = b / cols + b % cols;
        return da > db;
    });
    return rim;
}

void add_planned_flow(Scenario& scenario, int flow_id, std::vector<NodeId> path, double start_s,
                      double duration_s)
{
    scenario.network->add_flow(flow_id, path);
    scenario.flows.push_back(FlowPlan{flow_id, std::move(path), start_s, start_s + duration_s});
}

/// `copies` cols x rows grids side by side along x, `gap_m` apart, each
/// with `sources` convergecast flows to its own corner gateway; node and
/// flow ids are copy-major. Flows route on the single grid and
/// instantiate reads only positions, so the layout carries no adjacency.
template <typename Spec>
Scenario make_replicated_convergecast(const char* who, const Spec& spec, int copies,
                                      Network::Config config)
{
    const Topology grid =
        make_grid_topology(spec.cols, spec.rows, spec.spacing_m, config.phy.tx_range_m);
    const std::vector<NodeId> rim = convergecast_rim(spec.cols, spec.rows);
    if (spec.sources < 1 || spec.sources > static_cast<int>(rim.size()))
        throw std::invalid_argument(std::string(who) + ": bad source count");
    const int per_copy = grid.node_count();
    const double copy_width = (spec.cols - 1) * spec.spacing_m;

    Topology topo;
    topo.positions.reserve(static_cast<std::size_t>(per_copy) * static_cast<std::size_t>(copies));
    for (int k = 0; k < copies; ++k) {
        const double offset = k * (copy_width + spec.gap_m);
        for (const phy::Position& p : grid.positions)
            topo.positions.push_back(phy::Position{p.x + offset, p.y});
    }

    Scenario scenario = instantiate(topo, std::move(config));
    for (int k = 0; k < copies; ++k) {
        const NodeId base = k * per_copy;
        for (int i = 0; i < spec.sources; ++i) {
            std::vector<NodeId> path = shortest_path(grid, rim[static_cast<std::size_t>(i)], 0);
            for (NodeId& n : path) n += base;
            add_planned_flow(scenario, k * spec.sources + i + 1, std::move(path), spec.start_s,
                             spec.duration_s);
        }
    }
    return scenario;
}

}  // namespace

bool Topology::has_link(NodeId a, NodeId b) const
{
    if (a < 0 || a >= node_count()) return false;
    const auto& n = neighbours[static_cast<std::size_t>(a)];
    return std::binary_search(n.begin(), n.end(), b);
}

void rebuild_links(Topology& topo)
{
    const phy::GridIndex index(topo.positions, topo.link_range_m);
    topo.neighbours.assign(topo.positions.size(), {});
    for (std::size_t a = 0; a < topo.positions.size(); ++a) {
        std::vector<NodeId>& list = topo.neighbours[a];
        index.within(topo.positions[a], list);  // ascending, and includes a itself
        list.erase(std::find(list.begin(), list.end(), static_cast<NodeId>(a)));
    }
}

Topology make_grid_topology(int cols, int rows, double spacing_m, double link_range_m)
{
    if (cols < 1 || rows < 1) throw std::invalid_argument("make_grid_topology: empty lattice");
    if (spacing_m <= 0) throw std::invalid_argument("make_grid_topology: bad spacing");
    Topology topo;
    topo.link_range_m = link_range_m;
    topo.positions.reserve(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            topo.positions.push_back(phy::Position{c * spacing_m, r * spacing_m});
    rebuild_links(topo);
    return topo;
}

Topology make_random_topology(int nodes, double width_m, double height_m, double link_range_m,
                              std::uint64_t seed)
{
    if (nodes < 1) throw std::invalid_argument("make_random_topology: need at least one node");
    if (width_m < 0 || height_m < 0 || link_range_m <= 0)
        throw std::invalid_argument("make_random_topology: bad geometry");
    Topology topo;
    topo.link_range_m = link_range_m;
    util::Rng rng(seed ^ 0x70D0'5EEDULL);
    // Connected by construction: every node after the first is re-drawn
    // until it lands within link range of an already-placed node (uniform
    // scatter alone is almost never connected at mesh-realistic
    // densities). A node that cannot attach within the draw budget
    // restarts the whole layout; is_connected still validates the result.
    constexpr int kLayoutAttempts = 64;
    constexpr int kDrawsPerNode = 512;
    for (int attempt = 0; attempt < kLayoutAttempts; ++attempt) {
        topo.positions.clear();
        topo.positions.push_back(
            phy::Position{rng.uniform_real(0.0, width_m), rng.uniform_real(0.0, height_m)});
        bool stuck = false;
        while (static_cast<int>(topo.positions.size()) < nodes && !stuck) {
            stuck = true;
            for (int draw = 0; draw < kDrawsPerNode; ++draw) {
                const phy::Position candidate{rng.uniform_real(0.0, width_m),
                                              rng.uniform_real(0.0, height_m)};
                const bool attaches =
                    std::any_of(topo.positions.begin(), topo.positions.end(),
                                [&](const phy::Position& placed) {
                                    return phy::distance(candidate, placed) <= link_range_m;
                                });
                if (attaches) {
                    topo.positions.push_back(candidate);
                    stuck = false;
                    break;
                }
            }
        }
        if (stuck) continue;
        rebuild_links(topo);
        if (is_connected(topo)) return topo;
    }
    throw std::runtime_error("make_random_topology: no connected layout in " +
                             std::to_string(kLayoutAttempts) + " attempts (density too low)");
}

bool is_connected(const Topology& topo)
{
    const int n = topo.node_count();
    if (n <= 1) return true;
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::vector<NodeId> frontier{0};
    seen[0] = 1;
    int reached = 1;
    while (!frontier.empty()) {
        const NodeId at = frontier.back();
        frontier.pop_back();
        for (NodeId next : topo.neighbours[static_cast<std::size_t>(at)]) {
            if (seen[static_cast<std::size_t>(next)] == 0) {
                seen[static_cast<std::size_t>(next)] = 1;
                ++reached;
                frontier.push_back(next);
            }
        }
    }
    return reached == n;
}

std::vector<NodeId> shortest_path(const Topology& topo, NodeId src, NodeId dst)
{
    const int n = topo.node_count();
    if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) return {};
    // BFS hop distances from the destination, then walk downhill from the
    // source taking the smallest-id neighbour at every step — shortest by
    // construction and deterministic under ties.
    constexpr int kUnreached = -1;
    std::vector<int> dist(static_cast<std::size_t>(n), kUnreached);
    std::vector<NodeId> queue{dst};
    dist[static_cast<std::size_t>(dst)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId at = queue[head];
        for (NodeId next : topo.neighbours[static_cast<std::size_t>(at)]) {
            if (dist[static_cast<std::size_t>(next)] == kUnreached) {
                dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(at)] + 1;
                queue.push_back(next);
            }
        }
    }
    if (dist[static_cast<std::size_t>(src)] == kUnreached) return {};
    std::vector<NodeId> path{src};
    NodeId at = src;
    while (at != dst) {
        const int d = dist[static_cast<std::size_t>(at)];
        for (NodeId next : topo.neighbours[static_cast<std::size_t>(at)]) {
            if (dist[static_cast<std::size_t>(next)] == d - 1) {
                path.push_back(next);
                at = next;
                break;  // neighbours are sorted: first match is smallest id
            }
        }
    }
    return path;
}

Scenario make_grid_cross(const GridSpec& spec, std::uint64_t seed)
{
    if (spec.cols < 2 || spec.rows < 2)
        throw std::invalid_argument("make_grid_cross: need at least a 2x2 grid");
    if (spec.cross_flows < 1) throw std::invalid_argument("make_grid_cross: need >= 1 flow");
    Network::Config config = grid_config(spec, seed);
    const Topology topo =
        make_grid_topology(spec.cols, spec.rows, spec.spacing_m, config.phy.tx_range_m);
    Scenario scenario = instantiate(topo, std::move(config));

    const auto node_at = [&spec](int row, int col) { return row * spec.cols + col; };
    const int horizontal = (spec.cross_flows + 1) / 2;
    const int vertical = spec.cross_flows / 2;
    for (int i = 0; i < spec.cross_flows; ++i) {
        std::vector<NodeId> path;
        if (i % 2 == 0) {
            const int j = i / 2;
            const int row = spread_index(j, horizontal, spec.rows);
            for (int c = 0; c < spec.cols; ++c) path.push_back(node_at(row, c));
        } else {
            const int j = i / 2;
            const int col = spread_index(j, vertical, spec.cols);
            for (int r = 0; r < spec.rows; ++r) path.push_back(node_at(r, col));
        }
        // Alternate direction within each orientation so sources sit on
        // all four sides of the lattice.
        if ((i / 2) % 2 == 1) std::reverse(path.begin(), path.end());
        add_planned_flow(scenario, i + 1, std::move(path), spec.start_s, spec.duration_s);
    }
    return scenario;
}

Scenario make_grid_convergecast(const GridSpec& spec, std::uint64_t seed)
{
    if (spec.cols < 2 || spec.rows < 2)
        throw std::invalid_argument("make_grid_convergecast: need at least a 2x2 grid");
    Network::Config config = grid_config(spec, seed);
    const Topology topo =
        make_grid_topology(spec.cols, spec.rows, spec.spacing_m, config.phy.tx_range_m);

    const std::vector<NodeId> rim = convergecast_rim(spec.cols, spec.rows);
    if (spec.sources < 1 || spec.sources > static_cast<int>(rim.size()))
        throw std::invalid_argument("make_grid_convergecast: bad source count");

    Scenario scenario = instantiate(topo, std::move(config));
    for (int i = 0; i < spec.sources; ++i) {
        std::vector<NodeId> path = shortest_path(topo, rim[static_cast<std::size_t>(i)], 0);
        add_planned_flow(scenario, i + 1, std::move(path), spec.start_s, spec.duration_s);
    }
    return scenario;
}

Scenario make_parking_lot_chain(int hops, int flows, double start_s, double duration_s,
                                std::uint64_t seed)
{
    if (hops < 1) throw std::invalid_argument("make_parking_lot_chain: need at least 1 hop");
    if (flows < 1 || flows > hops)
        throw std::invalid_argument("make_parking_lot_chain: need 1 <= flows <= hops");
    Network::Config config = default_config(seed);
    const Topology topo = make_grid_topology(hops + 1, 1, 200.0, config.phy.tx_range_m);
    Scenario scenario = instantiate(topo, std::move(config));
    for (int i = 0; i < flows; ++i) {
        // Flow 1 spans the chain; later flows enter at evenly spread
        // relays, all draining toward the gateway at the far end.
        const int entry = (i * hops) / flows;
        std::vector<NodeId> path;
        for (int n = entry; n <= hops; ++n) path.push_back(n);
        add_planned_flow(scenario, i + 1, std::move(path), start_s, duration_s);
    }
    return scenario;
}

Scenario make_random_mesh(const MeshSpec& spec, std::uint64_t seed)
{
    if (spec.nodes < 2) throw std::invalid_argument("make_random_mesh: need >= 2 nodes");
    if (spec.flows < 1) throw std::invalid_argument("make_random_mesh: need >= 1 flow");
    const std::uint64_t topo_seed = spec.topo_seed != 0 ? spec.topo_seed : seed;
    Network::Config config = default_config(seed);
    config.max_shards = spec.max_shards;
    const Topology topo = make_random_topology(spec.nodes, spec.width_m, spec.height_m,
                                               config.phy.tx_range_m, topo_seed);
    Scenario scenario = instantiate(topo, config);

    // Flow endpoints come from the layout seed, not the run seed, so a
    // pinned topo_seed keeps the whole workload fixed across a seed sweep.
    util::Rng rng(topo_seed ^ 0xF10'35EEDULL);
    int placed = 0;
    // Prefer multi-hop (>= 2 hops) flows; settle for single-hop pairs
    // only when the scatter offers nothing longer.
    for (int min_hops = 2; min_hops >= 1 && placed < spec.flows; --min_hops) {
        const int budget = 64 * (spec.flows - placed);
        for (int attempt = 0; attempt < budget && placed < spec.flows; ++attempt) {
            const NodeId src = rng.uniform_int(0, spec.nodes - 1);
            const NodeId dst = rng.uniform_int(0, spec.nodes - 1);
            if (src == dst) continue;
            std::vector<NodeId> path = shortest_path(topo, src, dst);
            if (static_cast<int>(path.size()) < min_hops + 1) continue;
            add_planned_flow(scenario, ++placed, std::move(path), spec.start_s, spec.duration_s);
        }
    }
    if (placed < spec.flows)
        throw std::runtime_error("make_random_mesh: could not place the requested flows");
    return scenario;
}

Scenario make_islands(const IslandsSpec& spec, std::uint64_t seed)
{
    if (spec.islands < 1) throw std::invalid_argument("make_islands: need >= 1 island");
    if (spec.cols < 2 || spec.rows < 2)
        throw std::invalid_argument("make_islands: need at least 2x2 islands");
    Network::Config config = default_config(seed);
    config.max_shards = spec.max_shards;
    if (spec.gap_m <= config.phy.conflict_radius_m())
        throw std::invalid_argument(
            "make_islands: gap must exceed the radio conflict radius (islands would merge)");
    return make_replicated_convergecast("make_islands", spec, spec.islands, std::move(config));
}

Scenario make_cluster_grid(const ClustersSpec& spec, std::uint64_t seed)
{
    if (spec.clusters < 1) throw std::invalid_argument("make_cluster_grid: need >= 1 cluster");
    if (spec.cols < 2 || spec.rows < 2)
        throw std::invalid_argument("make_cluster_grid: need at least 2x2 clusters");
    Network::Config config = grid_config(spec, seed);
    if (spec.capture_threshold > 0) config.phy.capture_threshold = spec.capture_threshold;
    // The gap must open an interference-only band: beyond sense/delivery
    // (no cross-cluster links or carrier sensing) but within interference
    // range (otherwise the clusters are plain islands).
    const double radius_hard = std::max(config.phy.tx_range_m, config.phy.cs_range_m);
    if (spec.gap_m <= radius_hard)
        throw std::invalid_argument(
            "make_cluster_grid: gap must exceed the sense/delivery radius (clusters would "
            "sense each other)");
    if (spec.gap_m > config.phy.interference_range_m)
        throw std::invalid_argument(
            "make_cluster_grid: gap exceeds the interference range (use make_islands for "
            "fully disconnected grids)");
    return make_replicated_convergecast("make_cluster_grid", spec, spec.clusters,
                                        std::move(config));
}

}  // namespace ezflow::net

#pragma once

#include <cstdint>
#include <vector>

#include "net/topologies.h"

namespace ezflow::net {

/// Pure link-graph view of a planned deployment: node positions plus the
/// undirected delivery-range adjacency, computable before (and without)
/// building a Network. The generators below plan on a Topology — flow
/// routing is shortest-path over these links — and only then instantiate
/// nodes and flows, so the planning layer is cheap enough to reject and
/// retry whole layouts (random meshes) and to cross-check in tests.
struct Topology {
    std::vector<phy::Position> positions;
    /// Two nodes are linked when within this range (the PHY delivery
    /// range; consecutive flow hops must respect it).
    double link_range_m = 250.0;
    /// Per-node sorted neighbour lists under link_range_m.
    std::vector<std::vector<NodeId>> neighbours;

    int node_count() const { return static_cast<int>(positions.size()); }
    bool has_link(NodeId a, NodeId b) const;
};

/// Rebuild the adjacency lists from positions and link_range_m.
void rebuild_links(Topology& topo);

/// cols x rows lattice at `spacing_m`; node id = row * cols + col
/// (row-major), linked at `link_range_m` (pass the PHY delivery range, so
/// planned flows follow the graph the PHY delivers on). With 200 m
/// spacing and the default 250 m range, axis-aligned neighbours are 1-hop
/// links and diagonals (283 m) are not.
Topology make_grid_topology(int cols, int rows, double spacing_m, double link_range_m);

/// `nodes` positions drawn uniformly over [0,width] x [0,height] from the
/// seed, resampled (deterministically) until the delivery graph is
/// connected. Throws std::runtime_error when no connected layout is found
/// within the attempt budget (area too large for the node count).
Topology make_random_topology(int nodes, double width_m, double height_m, double link_range_m,
                              std::uint64_t seed);

/// Whether every node can reach every other over delivery-range links.
bool is_connected(const Topology& topo);

/// A shortest src -> dst path over the delivery links (BFS hop metric),
/// deterministic under ties: among equal-length options it follows the
/// smallest-id neighbour at every step. Empty when unreachable or
/// src == dst.
std::vector<NodeId> shortest_path(const Topology& topo, NodeId src, NodeId dst);

/// Parameters shared by the grid scenario builders. Ranges <= 0 keep the
/// defaults of default_config (250 m delivery / 550 m carrier sense and
/// interference, the ns-2 regime of the paper's simulations).
struct GridSpec {
    int cols = 5;
    int rows = 5;
    double spacing_m = 200.0;
    double tx_range_m = 0.0;
    double cs_range_m = 0.0;
    double interference_range_m = 0.0;
    /// make_grid_cross: straight row/column flows, alternating horizontal
    /// and vertical, spread across the lattice (the Chan/Liew/Chan
    /// arXiv:0704.0528 cross-traffic workload).
    int cross_flows = 4;
    /// make_grid_convergecast: edge sources routed to the gateway.
    int sources = 4;
    double start_s = 5.0;
    double duration_s = 60.0;
    /// Upper bound for the shard planner (plan_shards). A connected grid
    /// always collapses to one shard; the bound only matters for
    /// disconnected layouts.
    int max_shards = 1;
};

/// Cross-traffic grid: flow i (ids 1..cross_flows) runs straight along a
/// row (even i-1) or column (odd i-1), rows/columns spread evenly,
/// direction alternating per flow so sources sit on all four sides.
Scenario make_grid_cross(const GridSpec& spec, std::uint64_t seed);

/// Convergecast grid: `sources` nodes spread along the far row and far
/// column all route (shortest-path) to the gateway at node 0 — the
/// backhaul pattern of mesh access networks (flow ids 1..sources).
Scenario make_grid_convergecast(const GridSpec& spec, std::uint64_t seed);

/// Parking-lot chain of arbitrary length: a `hops`-hop chain whose flow 1
/// spans the whole chain and flows 2..flows enter at evenly spread
/// intermediate nodes, all toward the gateway at the far end (the Leith
/// et al. arXiv:1002.1581 max-min workload family). All flows are active
/// over [start_s, start_s + duration_s). Requires 1 <= flows <= hops.
Scenario make_parking_lot_chain(int hops, int flows, double start_s, double duration_s,
                                std::uint64_t seed);

/// Parameters for seeded random-mesh scenarios.
struct MeshSpec {
    int nodes = 24;
    int flows = 4;
    double width_m = 1400.0;
    double height_m = 1400.0;
    /// Layout seed; 0 derives it from the run seed, so every seed of a
    /// sweep exercises a different (but reproducible) mesh.
    std::uint64_t topo_seed = 0;
    double start_s = 5.0;
    double duration_s = 60.0;
    /// Upper bound for the shard planner (a connected mesh collapses to
    /// one shard; see GridSpec::max_shards).
    int max_shards = 1;
};

/// Seeded random mesh: a connected uniform scatter plus `flows` random
/// multi-hop flows (ids 1..flows) routed shortest-path. Deterministic in
/// (spec, seed).
Scenario make_random_mesh(const MeshSpec& spec, std::uint64_t seed);

/// Parameters for the disconnected-islands scenario: `islands` identical
/// cols x rows grids laid out along the x axis, separated by `gap_m`
/// (which must exceed the radio conflict radius so the islands are
/// provably independent — the shard planner's best case). Each island
/// runs its own convergecast: `sources` rim nodes route to the island's
/// local gateway (its lowest node id). Node ids are island-major; flow
/// ids are island-major 1..islands*sources.
struct IslandsSpec {
    int islands = 4;
    int cols = 4;
    int rows = 4;
    double spacing_m = 200.0;
    int sources = 2;
    double gap_m = 2000.0;
    double start_s = 5.0;
    double duration_s = 30.0;
    int max_shards = 1;
};

/// Disconnected islands of convergecast traffic — the space-parallel
/// topology: each island is a shard when max_shards allows, and the
/// shards share nothing.
Scenario make_islands(const IslandsSpec& spec, std::uint64_t seed);

/// Parameters for the clustered-grid scenario: `clusters` identical
/// cols x rows grids along the x axis separated by `gap_m`, chosen so the
/// inter-cluster band is *interference-only*: wider than the
/// sense/delivery radius (no cross-cluster links or carrier sensing) yet
/// within interference range (facing rim columns still corrupt each
/// other's receptions). The conflict graph is therefore one component,
/// and the shard planner keeps the whole grid in one shard whatever
/// `max_shards` allows. The capture threshold is raised so a lone
/// cross-gap interferer actually corrupts a spacing_m-distance reception
/// (two-ray 1/d^4: SIR at 600 m vs 200 m is 81, below the 100 default
/// here but above the ns-2 default of 10). Each cluster runs its own
/// convergecast exactly like IslandsSpec; node ids are cluster-major,
/// flow ids cluster-major 1..clusters*sources.
struct ClustersSpec {
    int clusters = 4;
    int cols = 4;
    int rows = 4;
    double spacing_m = 200.0;
    int sources = 2;
    /// Must satisfy max(tx, cs) < gap_m and gap_m <= interference range.
    double gap_m = 600.0;
    /// Ranges <= 0 keep the default_config values (250/550). The
    /// interference default is widened past the gap so the clusters
    /// interfere.
    double tx_range_m = 0.0;
    double cs_range_m = 0.0;
    double interference_range_m = 700.0;
    /// Linear capture SIR (<= 0 keeps the ns-2 default of 10).
    double capture_threshold = 100.0;
    double start_s = 5.0;
    double duration_s = 30.0;
    /// Upper bound for the shard planner; the connected conflict graph
    /// always plans to one shard.
    int max_shards = 1;
};

/// Clustered grids of convergecast traffic coupled only by cross-gap
/// interference. They run in one shard: an interference-only edge is a
/// conflict edge, and no conflict edge crosses a shard.
Scenario make_cluster_grid(const ClustersSpec& spec, std::uint64_t seed);

}  // namespace ezflow::net

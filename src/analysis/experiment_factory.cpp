#include "analysis/experiment_factory.h"

#include <sstream>
#include <stdexcept>

#include "mac/mac_params.h"

namespace ezflow::analysis {

ScenarioSpec ScenarioSpec::line(int hops, double duration_s)
{
    ScenarioSpec spec;
    spec.kind = Kind::kLine;
    spec.line_hops = hops;
    spec.line_duration_s = duration_s;
    return spec;
}

ScenarioSpec ScenarioSpec::testbed(double f1_start_s, double f1_stop_s, double f2_start_s,
                                   double f2_stop_s)
{
    ScenarioSpec spec;
    spec.kind = Kind::kTestbed;
    spec.testbed_f1_start_s = f1_start_s;
    spec.testbed_f1_stop_s = f1_stop_s;
    spec.testbed_f2_start_s = f2_start_s;
    spec.testbed_f2_stop_s = f2_stop_s;
    return spec;
}

ScenarioSpec ScenarioSpec::scenario1(double time_scale)
{
    ScenarioSpec spec;
    spec.kind = Kind::kScenario1;
    spec.time_scale = time_scale;
    return spec;
}

ScenarioSpec ScenarioSpec::scenario2(double time_scale)
{
    ScenarioSpec spec;
    spec.kind = Kind::kScenario2;
    spec.time_scale = time_scale;
    return spec;
}

ScenarioSpec ScenarioSpec::grid_cross(const net::GridSpec& grid)
{
    ScenarioSpec spec;
    spec.kind = Kind::kGridCross;
    spec.grid = grid;
    return spec;
}

ScenarioSpec ScenarioSpec::grid_gateway(const net::GridSpec& grid)
{
    ScenarioSpec spec;
    spec.kind = Kind::kGridGateway;
    spec.grid = grid;
    return spec;
}

ScenarioSpec ScenarioSpec::parking_lot(int hops, int flows, double duration_s)
{
    ScenarioSpec spec;
    spec.kind = Kind::kParkingLot;
    spec.lot_hops = hops;
    spec.lot_flows = flows;
    spec.lot_duration_s = duration_s;
    return spec;
}

ScenarioSpec ScenarioSpec::random_mesh(const net::MeshSpec& mesh)
{
    ScenarioSpec spec;
    spec.kind = Kind::kMesh;
    spec.mesh = mesh;
    return spec;
}

ScenarioSpec ScenarioSpec::islands_spec(const net::IslandsSpec& islands)
{
    ScenarioSpec spec;
    spec.kind = Kind::kIslands;
    spec.islands = islands;
    spec.shards = islands.max_shards;
    return spec;
}

ScenarioSpec ScenarioSpec::clusters_spec(const net::ClustersSpec& clusters)
{
    ScenarioSpec spec;
    spec.kind = Kind::kClusters;
    spec.clusters = clusters;
    spec.shards = clusters.max_shards;
    return spec;
}

std::string scenario_name(const ScenarioSpec& spec)
{
    std::ostringstream out;
    switch (spec.kind) {
        case ScenarioSpec::Kind::kLine: out << "line-" << spec.line_hops << "hop"; break;
        case ScenarioSpec::Kind::kTestbed: out << "testbed"; break;
        case ScenarioSpec::Kind::kScenario1: out << "scenario1 x" << spec.time_scale; break;
        case ScenarioSpec::Kind::kScenario2: out << "scenario2 x" << spec.time_scale; break;
        case ScenarioSpec::Kind::kGridCross:
            out << "grid-" << spec.grid.cols << "x" << spec.grid.rows << "-f"
                << spec.grid.cross_flows;
            break;
        case ScenarioSpec::Kind::kGridGateway:
            out << "grid-" << spec.grid.cols << "x" << spec.grid.rows << "-gw"
                << spec.grid.sources;
            break;
        case ScenarioSpec::Kind::kParkingLot:
            out << "lot-" << spec.lot_hops << "hop-f" << spec.lot_flows;
            break;
        case ScenarioSpec::Kind::kMesh:
            out << "mesh-" << spec.mesh.nodes << "n-f" << spec.mesh.flows;
            break;
        case ScenarioSpec::Kind::kIslands:
            out << "islands-" << spec.islands.islands << "x" << spec.islands.cols << "x"
                << spec.islands.rows;
            break;
        case ScenarioSpec::Kind::kClusters:
            out << "clusters-" << spec.clusters.clusters << "x" << spec.clusters.cols << "x"
                << spec.clusters.rows;
            break;
    }
    // Deliberately no shard suffix: the label feeds figure JSON, which
    // must stay byte-identical across shard counts. The A-MPDU batch size
    // DOES change results, so it is part of the name (K=1 keeps every
    // pre-existing label untouched).
    if (spec.ampdu_max_mpdus > 1) out << "-k" << spec.ampdu_max_mpdus;
    return out.str();
}

namespace {

net::Scenario build_topology(const ScenarioSpec& spec, std::uint64_t seed)
{
    switch (spec.kind) {
        case ScenarioSpec::Kind::kLine:
            return net::make_line(spec.line_hops, spec.line_duration_s, seed);
        case ScenarioSpec::Kind::kTestbed:
            return net::make_testbed(spec.testbed_f1_start_s, spec.testbed_f1_stop_s,
                                     spec.testbed_f2_start_s, spec.testbed_f2_stop_s, seed);
        case ScenarioSpec::Kind::kScenario1:
            return net::make_scenario1(spec.time_scale, seed);
        case ScenarioSpec::Kind::kScenario2:
            return net::make_scenario2(spec.time_scale, seed);
        case ScenarioSpec::Kind::kGridCross: {
            net::GridSpec grid = spec.grid;
            grid.max_shards = spec.shards;
            return net::make_grid_cross(grid, seed);
        }
        case ScenarioSpec::Kind::kGridGateway: {
            net::GridSpec grid = spec.grid;
            grid.max_shards = spec.shards;
            return net::make_grid_convergecast(grid, seed);
        }
        case ScenarioSpec::Kind::kParkingLot:
            return net::make_parking_lot_chain(spec.lot_hops, spec.lot_flows, spec.lot_start_s,
                                               spec.lot_duration_s, seed);
        case ScenarioSpec::Kind::kMesh: {
            net::MeshSpec mesh = spec.mesh;
            mesh.max_shards = spec.shards;
            return net::make_random_mesh(mesh, seed);
        }
        case ScenarioSpec::Kind::kIslands: {
            net::IslandsSpec islands = spec.islands;
            islands.max_shards = spec.shards;
            return net::make_islands(islands, seed);
        }
        case ScenarioSpec::Kind::kClusters: {
            net::ClustersSpec clusters = spec.clusters;
            clusters.max_shards = spec.shards;
            return net::make_cluster_grid(clusters, seed);
        }
    }
    throw std::logic_error("build_scenario: unknown scenario kind");
}

}  // namespace

net::Scenario build_scenario(const ScenarioSpec& spec, std::uint64_t seed)
{
    // Checked before the topology is built, so a bad spec fails fast.
    if (spec.ampdu_max_mpdus < 1 || spec.ampdu_max_mpdus > mac::kMaxAmpduMpdus)
        throw std::invalid_argument("build_scenario: ampdu_max_mpdus outside [1, 64]");
    net::Scenario scenario = build_topology(spec, seed);
    if (spec.ampdu_max_mpdus > 1) scenario.network->set_ampdu_max_mpdus(spec.ampdu_max_mpdus);
    scenario.faults = spec.faults;
    return scenario;
}

}  // namespace ezflow::analysis

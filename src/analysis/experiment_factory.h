#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "analysis/experiment.h"
#include "net/topo_gen.h"
#include "net/topologies.h"

namespace ezflow::analysis {

/// Declarative description of which canned topology to build and with
/// which knobs — the "scenario" axis of a sweep grid. Extracted from the
/// per-bench construction code so the same spec can be replayed across
/// seeds, modes, and threads.
struct ScenarioSpec {
    enum class Kind {
        kLine,         ///< K-hop chain (Fig. 1 family)
        kTestbed,      ///< 9-router testbed of Fig. 3 (Table 1/2, Fig. 4)
        kScenario1,    ///< two 8-hop flows merging at a gateway (Figs. 6-8)
        kScenario2,    ///< three crossing flows, hidden sources (Figs. 9-11)
        kGridCross,    ///< N x M lattice with crossing row/column flows
        kGridGateway,  ///< N x M lattice, edge sources converging on node 0
        kParkingLot,   ///< arbitrary-length chain, staggered entry flows
        kMesh,         ///< seeded random mesh, shortest-path flows
        kIslands,      ///< disconnected grid islands (sharded-engine bench)
        kClusters,     ///< clustered grids coupled by interference only
    };

    Kind kind = Kind::kScenario1;

    /// Timeline compression for scenario 1/2 (1.0 = the paper's full
    /// durations).
    double time_scale = 1.0;

    // kLine knobs.
    int line_hops = 4;
    double line_duration_s = 60.0;

    // kTestbed activity windows (seconds).
    double testbed_f1_start_s = 5.0;
    double testbed_f1_stop_s = 65.0;
    double testbed_f2_start_s = 5.0;
    double testbed_f2_stop_s = 65.0;

    // kGridCross / kGridGateway knobs (generated lattices, net/topo_gen.h).
    net::GridSpec grid;

    // kParkingLot knobs.
    int lot_hops = 8;
    int lot_flows = 3;
    double lot_start_s = 5.0;
    double lot_duration_s = 60.0;

    // kMesh knobs.
    net::MeshSpec mesh;

    // kIslands knobs.
    net::IslandsSpec islands;

    // kClusters knobs.
    net::ClustersSpec clusters;

    /// Shard budget for generated topologies (grid / mesh / islands):
    /// the Network partitions nodes into up to this many conflict-free
    /// shards. 1 keeps the serial engine; connected topologies collapse
    /// back to one shard regardless. Ignored by the hand-built paper
    /// scenarios, which are all single-component.
    int shards = 1;

    /// Block-ack agreement applied to every node's MAC: up to this many
    /// MPDUs per A-MPDU batch, in [1, 64]. 1 (the default) sends one MPDU
    /// per access, answered by a normal ACK; larger values batch under
    /// block-ack and suffix the scenario name with "-k<K>" so sweep cells
    /// stay distinguishable.
    int ampdu_max_mpdus = 1;

    /// Scheduled node/link faults carried into the built Scenario (empty
    /// default: no injector is constructed, zero overhead). Event times
    /// are absolute simulation seconds, so specs compose with the
    /// topology's start/duration knobs.
    net::FaultPlan faults;

    static ScenarioSpec line(int hops, double duration_s);
    static ScenarioSpec testbed(double f1_start_s, double f1_stop_s, double f2_start_s,
                                double f2_stop_s);
    static ScenarioSpec scenario1(double time_scale);
    static ScenarioSpec scenario2(double time_scale);
    static ScenarioSpec grid_cross(const net::GridSpec& grid);
    static ScenarioSpec grid_gateway(const net::GridSpec& grid);
    static ScenarioSpec parking_lot(int hops, int flows, double duration_s);
    static ScenarioSpec random_mesh(const net::MeshSpec& mesh);
    static ScenarioSpec islands_spec(const net::IslandsSpec& islands);
    static ScenarioSpec clusters_spec(const net::ClustersSpec& clusters);
};

std::string scenario_name(const ScenarioSpec& spec);

/// Build the network + flow plan a spec describes, seeded for one run.
/// Throws std::invalid_argument when `ampdu_max_mpdus` is outside [1, 64].
net::Scenario build_scenario(const ScenarioSpec& spec, std::uint64_t seed);

/// Binds a scenario (a ScenarioSpec, or a seed -> Scenario builder for a
/// network the specs do not describe) to the ExperimentOptions under test
/// and stamps out independent, identically-configured experiments per
/// seed — the unit of work a SweepRunner fans across threads.
class ExperimentFactory {
public:
    using Builder = std::function<net::Scenario(std::uint64_t seed)>;

    ExperimentFactory(const ScenarioSpec& spec, ExperimentOptions options)
        : ExperimentFactory(scenario_name(spec),
                            [spec](std::uint64_t seed) { return build_scenario(spec, seed); },
                            options)
    {
    }

    ExperimentFactory(std::string scenario_label, Builder build, ExperimentOptions options)
        : scenario_label_(std::move(scenario_label)), build_(std::move(build)), options_(options)
    {
    }

    /// A fresh experiment over a fresh Network, deterministic in `seed`.
    std::unique_ptr<Experiment> make(std::uint64_t seed) const
    {
        return std::make_unique<Experiment>(build_(seed), options_);
    }

    /// "scenario1 x0.3 / EZ-flow" — used in sweep reports.
    std::string label() const { return scenario_label_ + " / " + mode_name(options_.mode); }

private:
    std::string scenario_label_;
    Builder build_;
    ExperimentOptions options_;
};

}  // namespace ezflow::analysis

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/network.h"

namespace ezflow::net {

/// Description of one flow in a canned scenario.
struct FlowPlan {
    int flow_id;
    std::vector<NodeId> path;
    /// Active period in seconds (as in the paper's scenario timelines).
    double start_s;
    double stop_s;
};

/// A built scenario: the network plus the flows to drive through it.
struct Scenario {
    std::unique_ptr<Network> network;
    std::vector<FlowPlan> flows;
    /// Human-readable node labels matching the paper's figures
    /// (e.g. "N1", "N0'" on the testbed map). Only the paper builders
    /// (topologies.cpp) label nodes; generated topologies leave it empty.
    std::map<NodeId, std::string> labels;
    /// Scheduled node/link fault events (empty for the canned paper
    /// scenarios). Executed by a sim::FaultInjector when the scenario is
    /// run through analysis::Experiment.
    FaultPlan faults;
};

/// Common defaults used by all scenarios: ns-2 ranges (250 m delivery,
/// 550 m carrier sense), 200 m hop spacing, 802.11b at 1 Mb/s, buffer of
/// 50 packets, RTS/CTS off.
Network::Config default_config(std::uint64_t seed);

/// Same, but with carrier sense reduced to the delivery range (250 m):
/// the testbed regime, where 2-hop-apart routers across buildings are too
/// attenuated to trigger carrier sense, making them mutually hidden. This
/// is the geometry under which [9] proves (and Fig. 1 measures) "3-hop
/// stable, 4-hop unstable": the source collides with the 2-hop relay
/// (penalizing it) while 3-hop-apart nodes enjoy clean spatial reuse that
/// floods the first relay. Interference still carries to 550 m.
Network::Config testbed_config(std::uint64_t seed);

/// A straight K-hop chain (K+1 nodes, `spacing_m` apart) under `config`.
/// One flow (id 0) from node 0 to node K, active over [start_s, stop_s).
Scenario make_chain(const Network::Config& config, int hops, double spacing_m, double start_s,
                    double stop_s);

/// The Fig. 1 topology family: make_chain under testbed_config with 200 m
/// hops, the flow active for `duration_s` from t = 5 s.
Scenario make_line(int hops, double duration_s, std::uint64_t seed);

/// The 9-router testbed of Fig. 3: a 7-hop flow F1 (N0 -> ... -> N7) and a
/// 4-hop flow F2 (N0' joining at N4, sharing links l4..l6) forming a
/// parking-lot. Per-link loss rates are calibrated so the single-link
/// capacities reproduce Table 1 (l2 is the bottleneck at ~408 kb/s).
/// Flow ids: F1 = 1, F2 = 2. Activity windows are set by the caller.
Scenario make_testbed(double f1_start_s, double f1_stop_s, double f2_start_s, double f2_stop_s,
                      std::uint64_t seed);

/// Per-link loss rates used by make_testbed, exposed for the Table 1
/// calibration bench: element i is the loss of link l_i = N_i -> N_{i+1}
/// along F1's path.
const std::vector<double>& testbed_link_loss();

/// Scenario 1 (Fig. 5): two 8-hop flows merging at N4 toward gateway N0.
/// F1: N12 -> N10 -> N8 -> N6 -> N4 -> N3 -> N2 -> N1 -> N0 (id 1)
/// F2: N11 -> N9 -> N7 -> N5 -> N4 -> N3 -> N2 -> N1 -> N0 (id 2)
/// F1 active [5, 2504] s; F2 active [605, 1804] s (the paper's timeline,
/// scaled by `time_scale` for faster test runs).
Scenario make_scenario1(double time_scale, std::uint64_t seed);

/// Scenario 2 (Fig. 9): three flows sharing parts of a 28-node layout,
/// with hidden sources. Flow ids 1..3; timeline [5,1805), [1805,3605),
/// [3605,4500) scaled by `time_scale`.
Scenario make_scenario2(double time_scale, std::uint64_t seed);

}  // namespace ezflow::net

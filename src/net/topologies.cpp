#include "net/topologies.h"

#include <cmath>
#include <stdexcept>

namespace ezflow::net {

namespace {

/// Hop spacing used by all scenarios: adjacent nodes are 1-hop neighbours
/// (200 < 250 m), 2-hop neighbours carrier-sense each other (400 < 550 m),
/// and 3-hop neighbours are hidden (600 > 550 m) — the ns-2 regime the
/// paper simulates and the one [9] proves unstable beyond 3 hops.
constexpr double kSpacing = 200.0;

using util::kPi;

}  // namespace

Network::Config default_config(std::uint64_t seed)
{
    Network::Config config;
    config.seed = seed;
    // phy and mac defaults already encode the paper's setup (see
    // PhyParams/MacParams); nothing to override here.
    return config;
}

Network::Config testbed_config(std::uint64_t seed)
{
    Network::Config config = default_config(seed);
    config.phy.cs_range_m = config.phy.tx_range_m;  // 1-hop carrier sensing
    return config;
}

Scenario make_chain(const Network::Config& config, int hops, double spacing_m, double start_s,
                    double stop_s)
{
    if (hops < 1) throw std::invalid_argument("make_chain: need at least 1 hop");
    Scenario scenario;
    scenario.network = std::make_unique<Network>(config);
    Network& net = *scenario.network;
    std::vector<NodeId> path;
    for (int i = 0; i <= hops; ++i) {
        const NodeId id = net.add_node({spacing_m * i, 0.0});
        path.push_back(id);
        scenario.labels[id] = "N" + std::to_string(i);
    }
    net.add_flow(0, path);
    scenario.flows.push_back(FlowPlan{0, path, start_s, stop_s});
    return scenario;
}

Scenario make_line(int hops, double duration_s, std::uint64_t seed)
{
    return make_chain(testbed_config(seed), hops, kSpacing, 5.0, 5.0 + duration_s);
}

const std::vector<double>& testbed_link_loss()
{
    // Calibrated so single-link saturation throughput reproduces Table 1:
    // l0..l6 = 845, 672, 408, 748, 746, 805, 648 kb/s, with l2 = N2->N3
    // the bottleneck. Loss applies to the data direction of each link.
    static const std::vector<double> kLoss = {0.02, 0.20, 0.47, 0.12, 0.12, 0.06, 0.23};
    return kLoss;
}

Scenario make_testbed(double f1_start_s, double f1_stop_s, double f2_start_s, double f2_stop_s,
                      std::uint64_t seed)
{
    Scenario scenario;
    scenario.network = std::make_unique<Network>(testbed_config(seed));
    Network& net = *scenario.network;

    // F1's chain N0..N7 (7 hops, links l0..l6 as in Fig. 3 / Table 1).
    std::vector<NodeId> f1_path;
    for (int i = 0; i <= 7; ++i) {
        const NodeId id = net.add_node({kSpacing * i, 0.0});
        f1_path.push_back(id);
        scenario.labels[id] = "N" + std::to_string(i);
    }
    // F2's source N0' sits beside the junction N4 (parking-lot entry).
    // Placement matters: N0' carrier-senses N3, N4 and N5 (it coordinates
    // with the exchanges around the junction instead of jamming them —
    // the routers sat in neighbouring buildings) but is hidden from N6.
    // That keeps F2 a proper 4-hop chain whose first relay N4 suffers the
    // >3-hop instability (Fig. 4: N4's buffer builds up when F2 runs
    // alone, because N0' + N6 enjoy spatial reuse while N6's hidden
    // frames corrupt N4's) with a clean source entry link.
    const NodeId n0p = net.add_node({kSpacing * 4, kSpacing * 0.75});
    scenario.labels[n0p] = "N0'";
    std::vector<NodeId> f2_path = {n0p, f1_path[4], f1_path[5], f1_path[6], f1_path[7]};

    net.add_flow(1, f1_path);
    net.add_flow(2, f2_path);
    scenario.flows.push_back(FlowPlan{1, f1_path, f1_start_s, f1_stop_s});
    scenario.flows.push_back(FlowPlan{2, f2_path, f2_start_s, f2_stop_s});

    const auto& loss = testbed_link_loss();
    for (std::size_t i = 0; i < loss.size(); ++i)
        net.channel().set_link_loss(f1_path[i], f1_path[i + 1], loss[i]);
    net.channel().set_link_loss(n0p, f1_path[4], 0.05);
    return scenario;
}

Scenario make_scenario1(double time_scale, std::uint64_t seed)
{
    if (time_scale <= 0.0) throw std::invalid_argument("make_scenario1: bad time scale");
    Scenario scenario;
    scenario.network = std::make_unique<Network>(default_config(seed));
    Network& net = *scenario.network;

    // Common trunk toward the gateway N0: N4 -> N3 -> N2 -> N1 -> N0.
    std::vector<NodeId> trunk;  // index i holds N_i for i = 0..4
    for (int i = 0; i <= 4; ++i) {
        const NodeId id = net.add_node({kSpacing * i, 0.0});
        trunk.push_back(id);
        scenario.labels[id] = "N" + std::to_string(i);
    }
    // Two branches diverge from N4 at +/-30 degrees: even-numbered nodes
    // N6, N8, N10, N12 on one, odd N5, N7, N9, N11 on the other (Fig. 5).
    const double angle = 30.0 * kPi / 180.0;
    std::vector<NodeId> branch_a;  // N6, N8, N10, N12
    std::vector<NodeId> branch_b;  // N5, N7, N9, N11
    for (int k = 1; k <= 4; ++k) {
        const double x = kSpacing * 4 + kSpacing * k * std::cos(angle);
        const double y = kSpacing * k * std::sin(angle);
        const NodeId a = net.add_node({x, y});
        branch_a.push_back(a);
        scenario.labels[a] = "N" + std::to_string(4 + 2 * k);
        const NodeId b = net.add_node({x, -y});
        branch_b.push_back(b);
        scenario.labels[b] = "N" + std::to_string(3 + 2 * k);
    }

    // F1: N12 -> N10 -> N8 -> N6 -> N4 -> N3 -> N2 -> N1 -> N0.
    std::vector<NodeId> f1_path = {branch_a[3], branch_a[2], branch_a[1], branch_a[0],
                                   trunk[4],    trunk[3],    trunk[2],    trunk[1],  trunk[0]};
    // F2: N11 -> N9 -> N7 -> N5 -> N4 -> N3 -> N2 -> N1 -> N0.
    std::vector<NodeId> f2_path = {branch_b[3], branch_b[2], branch_b[1], branch_b[0],
                                   trunk[4],    trunk[3],    trunk[2],    trunk[1],  trunk[0]};
    net.add_flow(1, f1_path);
    net.add_flow(2, f2_path);
    scenario.flows.push_back(FlowPlan{1, f1_path, 5.0 * time_scale, 2504.0 * time_scale});
    scenario.flows.push_back(FlowPlan{2, f2_path, 605.0 * time_scale, 1804.0 * time_scale});
    return scenario;
}

Scenario make_scenario2(double time_scale, std::uint64_t seed)
{
    if (time_scale <= 0.0) throw std::invalid_argument("make_scenario2: bad time scale");
    Scenario scenario;
    scenario.network = std::make_unique<Network>(default_config(seed));
    Network& net = *scenario.network;

    auto label = [&scenario](NodeId id, int n) { scenario.labels[id] = "N" + std::to_string(n); };

    // F1: an 8-hop west-east chain N0..N8.
    std::vector<NodeId> f1_path;
    for (int i = 0; i <= 8; ++i) {
        const NodeId id = net.add_node({kSpacing * i, 0.0});
        f1_path.push_back(id);
        label(id, i);
    }
    // F2: crosses F1 between N3 and N4 going north-south. Its source N10
    // is hidden from N0 (the property the paper highlights) and directly
    // competes with only two nodes, N11 and N12.
    std::vector<NodeId> f2_path;
    for (int k = 0; k < 6; ++k) {
        const NodeId id = net.add_node({700.0, 600.0 - kSpacing * k});
        f2_path.push_back(id);
        label(id, 10 + k);
    }
    // F3: crosses F1 between N6 and N7 going south-north, source N19.
    std::vector<NodeId> f3_path;
    for (int k = 0; k < 6; ++k) {
        const NodeId id = net.add_node({1300.0, -600.0 + kSpacing * k});
        f3_path.push_back(id);
        label(id, 19 + k);
    }

    net.add_flow(1, f1_path);
    net.add_flow(2, f2_path);
    net.add_flow(3, f3_path);
    scenario.flows.push_back(FlowPlan{1, f1_path, 5.0 * time_scale, 4500.0 * time_scale});
    scenario.flows.push_back(FlowPlan{2, f2_path, 5.0 * time_scale, 3605.0 * time_scale});
    scenario.flows.push_back(FlowPlan{3, f3_path, 1805.0 * time_scale, 3605.0 * time_scale});
    return scenario;
}

}  // namespace ezflow::net

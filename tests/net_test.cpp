#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "net/network.h"
#include "net/packet.h"
#include "net/topologies.h"

namespace ezflow::net {
namespace {

Network::Config topo_config() { return default_config(7); }

// --------------------------------------------------------------- packet

TEST(Packet, ChecksumDeterministic)
{
    EXPECT_EQ(packet_checksum(1, 42, 0, 5, 1000), packet_checksum(1, 42, 0, 5, 1000));
}

TEST(Packet, ChecksumSpreadsAcross16Bits)
{
    // A transport checksum should look uniform; over 20k packets of one
    // flow we expect most 16-bit values untouched but good dispersion and
    // some collisions (birthday bound), like real checksums.
    std::set<std::uint16_t> seen;
    const int n = 20000;
    for (int i = 0; i < n; ++i) seen.insert(packet_checksum(1, i, 0, 5, 1000));
    // With 2^16 buckets and 20k draws, expect ~17.3k distinct values.
    EXPECT_GT(seen.size(), 15000u);
    EXPECT_LT(seen.size(), static_cast<std::size_t>(n));  // collisions exist
}

TEST(Packet, ChecksumDependsOnAllFields)
{
    const auto base = packet_checksum(1, 42, 0, 5, 1000);
    EXPECT_NE(base, packet_checksum(2, 42, 0, 5, 1000));
    EXPECT_NE(base, packet_checksum(1, 43, 0, 5, 1000));
    EXPECT_NE(base, packet_checksum(1, 42, 1, 5, 1000));
}

// -------------------------------------------------------------- network

TEST(Network, AddNodeAssignsDenseIds)
{
    Network net(topo_config());
    EXPECT_EQ(net.add_node({0, 0}), 0);
    EXPECT_EQ(net.add_node({200, 0}), 1);
    EXPECT_EQ(net.node_count(), 2);
    EXPECT_THROW(net.node(2), std::out_of_range);
}

TEST(Network, AddNodeRejectsNonFinitePositions)
{
    // A NaN coordinate would join every reach list (d > r is false for
    // NaN) with NaN power; inf would poison the geometry index.
    Network net(topo_config());
    net.add_node({0, 0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const phy::Position bad : {phy::Position{nan, 0}, phy::Position{0, nan},
                                    phy::Position{inf, 0}, phy::Position{0, -inf}})
        EXPECT_THROW(net.add_node(bad), std::invalid_argument);
    EXPECT_EQ(net.node_count(), 1);
    EXPECT_EQ(net.add_node({200, 0}), 1);
}

TEST(Network, AddFlowValidatesNodesAndRange)
{
    Network net(topo_config());
    net.add_node({0, 0});
    net.add_node({200, 0});
    net.add_node({600, 0});
    EXPECT_THROW(net.add_flow(1, {0, 5}), std::invalid_argument);  // unknown node
    EXPECT_THROW(net.add_flow(1, {1, 2}), std::invalid_argument);  // 400 m hop
    net.add_flow(1, {0, 1});                                       // fine
}

TEST(Network, NodeThatNeverForwardedCountsNothing)
{
    // Node 3 overhears every hop of the 0 -> 1 -> 2 flow but is on no
    // path: its forwarding counters and reorder buffer stay empty, also
    // through a node-down/up cycle.
    Network net(topo_config());
    net.add_node({0, 0});
    net.add_node({200, 0});
    net.add_node({400, 0});
    const NodeId bystander = net.add_node({200, 150});
    net.add_flow(0, {0, 1, 2});
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
        Packet packet;
        packet.uid = seq;
        packet.flow_id = 0;
        packet.seq = seq;
        packet.src = 0;
        packet.dst = 2;
        packet.bytes = 500;
        EXPECT_TRUE(net.node(0).send(packet));
    }
    net.run_until(util::kSecond);
    EXPECT_EQ(net.node(1).forwarded(), 5u);
    EXPECT_EQ(net.node(2).delivered(), 5u);
    net.set_node_down(bystander);
    net.set_node_up(bystander);
    const Node& node = net.node(bystander);
    for (const std::uint64_t counter :
         {node.forwarded(), node.delivered(), node.forward_queue_drops(),
          node.source_queue_drops(), node.drops_node_down(), node.drops_unroutable(),
          node.reorder_buffered()})
        EXPECT_EQ(counter, 0u);
    EXPECT_GT(node.phy().frames_decoded(), 0u);  // it did hear the flow
}

TEST(Network, EveryMacReadsTheNetworksOneMacParams)
{
    Network net(topo_config());
    net.add_node({0, 0});
    net.add_node({200, 0});
    EXPECT_EQ(&net.node(0).mac().params(), &net.node(1).mac().params());
    EXPECT_EQ(&net.node(0).mac().params(), &net.config().mac);
    net.set_ampdu_max_mpdus(8);
    EXPECT_EQ(net.node(1).mac().params().ampdu_max_mpdus, 8);
}

TEST(Network, AmpduBatchSizeOutsideTheBitmapWidthIsRejected)
{
    Network net(topo_config());
    net.add_node({0, 0});
    net.set_ampdu_max_mpdus(4);
    EXPECT_THROW(net.set_ampdu_max_mpdus(0), std::invalid_argument);
    EXPECT_THROW(net.set_ampdu_max_mpdus(65), std::invalid_argument);
    EXPECT_EQ(net.config().mac.ampdu_max_mpdus, 4);
    net.set_ampdu_max_mpdus(64);
    EXPECT_EQ(net.node(0).mac().params().ampdu_max_mpdus, 64);
}

TEST(Network, ForkRngDeterministicPerSeed)
{
    Network a(topo_config());
    Network b(topo_config());
    EXPECT_EQ(a.fork_rng().next_u64(), b.fork_rng().next_u64());
}

// ----------------------------------------------------------- topologies

TEST(Topologies, LineHasHopsPlusOneNodes)
{
    Scenario s = make_line(4, 100.0, 1);
    EXPECT_EQ(s.network->node_count(), 5);
    ASSERT_EQ(s.flows.size(), 1u);
    EXPECT_EQ(s.flows[0].path.size(), 5u);
    EXPECT_EQ(s.labels.at(0), "N0");
    EXPECT_EQ(s.labels.at(4), "N4");
}

TEST(Topologies, LineUsesTestbedCarrierSenseRegime)
{
    // Fig. 1 lines model the testbed: adjacent nodes carrier-sense each
    // other, 2-hop neighbours are hidden (weak through-building paths),
    // and interference still reaches 2 hops (within 550 m).
    Scenario s = make_line(4, 100.0, 1);
    const auto& phy = s.network->config().phy;
    const auto& n0 = s.network->node(0).phy().position();
    const auto& n1 = s.network->node(1).phy().position();
    const auto& n2 = s.network->node(2).phy().position();
    EXPECT_LE(phy::distance(n0, n1), phy.cs_range_m);  // 1 hop sensed
    EXPECT_GT(phy::distance(n0, n2), phy.cs_range_m);  // 2 hops hidden
    EXPECT_LE(phy::distance(n0, n2), phy.interference_range_m);
}

TEST(Topologies, Scenario1UsesNs2CarrierSenseRegime)
{
    // The merging scenarios keep the ns-2 defaults the paper's
    // simulations quote: 550 m carrier sense over 200 m spacing.
    Scenario s = make_scenario1(1.0, 1);
    const auto& phy = s.network->config().phy;
    EXPECT_DOUBLE_EQ(phy.cs_range_m, 550.0);
    const auto& n0 = s.network->node(0).phy().position();
    const auto& n2 = s.network->node(2).phy().position();
    EXPECT_LE(phy::distance(n0, n2), phy.cs_range_m);  // 2 hops sensed
}

TEST(Topologies, TestbedMatchesFig3Structure)
{
    Scenario s = make_testbed(5, 100, 5, 100, 1);
    EXPECT_EQ(s.network->node_count(), 9);  // N0..N7 plus N0'
    ASSERT_EQ(s.flows.size(), 2u);
    EXPECT_EQ(s.flows[0].path.size(), 8u);  // F1: 7 hops
    EXPECT_EQ(s.flows[1].path.size(), 5u);  // F2: 4 hops
    // F2 joins F1 at N4 and shares the tail.
    EXPECT_EQ(s.flows[1].path[1], s.flows[0].path[4]);
    EXPECT_EQ(s.flows[1].path.back(), s.flows[0].path.back());
}

TEST(Topologies, TestbedLinkLossMarksL2Bottleneck)
{
    const auto& loss = testbed_link_loss();
    ASSERT_EQ(loss.size(), 7u);
    for (std::size_t i = 0; i < loss.size(); ++i) {
        if (i == 2) continue;
        EXPECT_LT(loss[i], loss[2]) << "l2 must be the worst link";
    }
}

TEST(Topologies, Scenario1FlowsMergeAtN4)
{
    Scenario s = make_scenario1(1.0, 1);
    ASSERT_EQ(s.flows.size(), 2u);
    const auto& f1 = s.flows[0].path;
    const auto& f2 = s.flows[1].path;
    EXPECT_EQ(f1.size(), 9u);  // 8 hops
    EXPECT_EQ(f2.size(), 9u);
    // Last five nodes (N4..N0) are shared.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(f1[f1.size() - 1 - i], f2[f2.size() - 1 - i]);
    // Branch sources differ.
    EXPECT_NE(f1[0], f2[0]);
}

TEST(Topologies, Scenario1TimelineMatchesPaper)
{
    Scenario s = make_scenario1(1.0, 1);
    EXPECT_DOUBLE_EQ(s.flows[0].start_s, 5.0);
    EXPECT_DOUBLE_EQ(s.flows[0].stop_s, 2504.0);
    EXPECT_DOUBLE_EQ(s.flows[1].start_s, 605.0);
    EXPECT_DOUBLE_EQ(s.flows[1].stop_s, 1804.0);
}

TEST(Topologies, Scenario2HiddenSources)
{
    Scenario s = make_scenario2(1.0, 1);
    ASSERT_EQ(s.flows.size(), 3u);
    const auto& phy = s.network->config().phy;
    const auto& f1_src = s.network->node(s.flows[0].path[0]).phy().position();
    const auto& f2_src = s.network->node(s.flows[1].path[0]).phy().position();
    const auto& f3_src = s.network->node(s.flows[2].path[0]).phy().position();
    EXPECT_GT(phy::distance(f1_src, f2_src), phy.cs_range_m);
    EXPECT_GT(phy::distance(f1_src, f3_src), phy.cs_range_m);
    EXPECT_GT(phy::distance(f2_src, f3_src), phy.cs_range_m);
}

TEST(Topologies, Scenario2SourceCompetesWithTwoNodes)
{
    // The paper: "N10 only directly competes with two nodes (N11 and N12)".
    Scenario s = make_scenario2(1.0, 1);
    const auto& phy = s.network->config().phy;
    const NodeId n10 = s.flows[1].path[0];
    int sensed = 0;
    for (NodeId other = 0; other < s.network->node_count(); ++other) {
        if (other == n10) continue;
        if (phy::distance(s.network->node(n10).phy().position(),
                          s.network->node(other).phy().position()) <= phy.cs_range_m)
            ++sensed;
    }
    EXPECT_EQ(sensed, 2);
}

TEST(Topologies, AllScenarioHopsWithinDeliveryRange)
{
    // add_flow() validates this; building the scenarios must not throw.
    EXPECT_NO_THROW(make_line(7, 10, 1));
    EXPECT_NO_THROW(make_testbed(0, 10, 0, 10, 1));
    EXPECT_NO_THROW(make_scenario1(0.1, 1));
    EXPECT_NO_THROW(make_scenario2(0.1, 1));
}

}  // namespace
}  // namespace ezflow::net

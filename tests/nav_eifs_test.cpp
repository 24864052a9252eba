#include <gtest/gtest.h>

#include <memory>

#include "net/topologies.h"
#include "traffic/sink.h"
#include "traffic/source.h"

// Focused tests for the two carrier-sense refinements that turned out to
// be load-bearing for the paper's phenomena (DESIGN.md §4.0): the NAV
// (Duration-based virtual carrier sense) and EIFS. Both are exercised
// indirectly by every integration test; these pin down the mechanism.
namespace ezflow::mac {
namespace {

using util::kSecond;

TEST(Nav, ThirdPartyDefersOverAckExchange)
{
    // w decodes a's data frame to b and must hold its own transmission
    // until after b's ACK: b's ACK success rate stays perfect even though
    // w is saturated and cannot sense... w *can* sense everyone here; the
    // assertion is on zero ACK-collision retries at a.
    net::Network::Config config = net::default_config(3);
    net::Network network(config);
    const auto a = network.add_node({0, 0});
    const auto b = network.add_node({200, 0});
    const auto w = network.add_node({100, 150});
    const auto d = network.add_node({100, 350});
    network.add_flow(0, {a, b});
    network.add_flow(1, {w, d});
    traffic::Sink sink(network);
    sink.attach_flow(0);
    sink.attach_flow(1);
    traffic::CbrSource f0(network, 0, 1000, 2e6);
    traffic::CbrSource f1(network, 1, 1000, 2e6);
    f0.activate(0, 20 * kSecond);
    f1.activate(0, 20 * kSecond);
    network.run_until(20 * kSecond);
    // Mutually-sensing saturated neighbours: only same-slot draws collide.
    const auto retx = network.node(a).mac().retransmissions() +
                      network.node(w).mac().retransmissions();
    const auto succ =
        network.node(a).mac().successes() + network.node(w).mac().successes();
    ASSERT_GT(succ, 1000u);
    EXPECT_LT(static_cast<double>(retx) / static_cast<double>(succ), 0.25);
}

TEST(Nav, ExposedAckWindowProtectedAtOneHopSensing)
{
    // Testbed regime (1-hop CS): n1 decodes n2's data to n3 and must not
    // jam n3's ACK back to n2 even though n1 cannot sense n3 (400 m).
    // With the NAV in place, n2's exchanges complete without retries
    // caused by n1.
    net::Network::Config config = net::testbed_config(4);
    net::Network network(config);
    const auto n0 = network.add_node({0, 0});
    const auto n1 = network.add_node({200, 0});
    const auto n2 = network.add_node({400, 0});
    const auto n3 = network.add_node({600, 0});
    (void)n0;
    network.add_flow(0, {n1, n2, n3});  // n2 relays toward n3
    traffic::Sink sink(network);
    sink.attach_flow(0);
    traffic::CbrSource source(network, 0, 1000, 2e6);
    source.activate(0, 20 * kSecond);
    network.run_until(20 * kSecond);
    // n2's transmissions to n3: their ACKs come back through the window
    // n1 would jam without virtual carrier sense. Allow only the small
    // residue of genuine collisions.
    const auto& mac2 = network.node(n2).mac();
    ASSERT_GT(mac2.successes(), 500u);
    EXPECT_LT(static_cast<double>(mac2.retransmissions()),
              0.2 * static_cast<double>(mac2.successes()));
}

net::Packet one_packet(int flow_id)
{
    net::Packet packet;
    packet.flow_id = flow_id;
    packet.bytes = 1000;
    return packet;
}

/// Advance `network` one microsecond at a time until `done` holds.
template <typename Done>
void step_until(net::Network& network, Done done)
{
    while (!done()) network.run_until(network.scheduler().now() + 1);
}

TEST(Nav, BystanderThatNeverContendsSchedulesNothing)
{
    // w overhears a's data frame to b and sets its NAV, but has nothing to
    // send: the network must hold exactly the events of its twin without
    // w, both while the NAV runs and at the end.
    const auto build = [](bool with_bystander) {
        auto network = std::make_unique<net::Network>(net::default_config(3));
        const auto a = network->add_node({0, 0});
        const auto b = network->add_node({200, 0});
        if (with_bystander) network->add_node({100, 150});
        network->add_flow(0, {a, b});
        network->node(a).mac().enqueue(QueueKey{b, true}, one_packet(0));
        return network;
    };
    const auto with = build(true);
    const auto without = build(false);
    const DcfMac& w = with->node(2).mac();
    step_until(*with, [&] { return w.nav_until() > 0; });
    const util::SimTime nav_set_at = with->scheduler().now();
    ASSERT_GT(w.nav_until(), nav_set_at);
    without->run_until(nav_set_at);
    EXPECT_EQ(with->scheduler().pending(), without->scheduler().pending());
    with->run_until(kSecond);
    without->run_until(kSecond);
    EXPECT_EQ(with->node(0).mac().successes(), 1u);
    EXPECT_EQ(with->scheduler().processed(), without->scheduler().processed());
}

TEST(Nav, MacThatGetsAPacketMidNavStartsItsDifsAtNavEnd)
{
    // 1-hop carrier sensing: w decodes a's data to b but cannot sense b's
    // ACK, so no busy edge ends its wait; only the NAV expiry does. With
    // CWmin 1 the backoff is 0 slots, so w transmits one DIFS after it.
    net::Network::Config config = net::testbed_config(4);
    config.mac.cw_min = 1;
    net::Network network(config);
    const auto a = network.add_node({0, 0});
    const auto b = network.add_node({200, 0});
    const auto w = network.add_node({-200, 0});
    network.add_flow(0, {a, b});
    network.add_flow(1, {w, a});
    network.node(a).mac().enqueue(QueueKey{b, true}, one_packet(0));
    const DcfMac& mac_w = network.node(w).mac();
    step_until(network, [&] { return mac_w.nav_until() > 0; });
    const util::SimTime nav_until = mac_w.nav_until();
    network.run_until(network.scheduler().now() + 5);
    ASSERT_LT(network.scheduler().now(), nav_until);
    network.node(w).mac().enqueue(QueueKey{a, true}, one_packet(1));
    step_until(network, [&] {
        return mac_w.data_attempts() > 0 || network.scheduler().now() > kSecond;
    });
    EXPECT_EQ(network.scheduler().now(), nav_until + config.mac.difs_us);
    EXPECT_FALSE(network.node(w).phy().last_rx_error());
}

TEST(Eifs, AppliedAfterUndecodableBusyPeriod)
{
    // A node that senses energy it cannot decode must wait EIFS: measure
    // via the PHY flag directly.
    net::Network::Config config = net::default_config(5);
    net::Network network(config);
    const auto a = network.add_node({0, 0});
    const auto b = network.add_node({200, 0});
    // w senses a (350 < 550) and b's ACKs (550 <= 550) but can decode
    // neither (both beyond the 250 m delivery range), so every busy
    // period it observes ends in error.
    const auto w = network.add_node({-350, 0});
    network.add_flow(0, {a, b});
    traffic::Sink sink(network);
    sink.attach_flow(0);
    traffic::CbrSource source(network, 0, 1000, 100'000.0);
    source.activate(0, 2 * kSecond);
    network.run_until(2 * kSecond);
    EXPECT_TRUE(network.node(w).phy().last_rx_error())
        << "sensed-but-undecodable frames leave the EIFS flag set";
    EXPECT_FALSE(network.node(b).phy().last_rx_error())
        << "clean decodes clear the EIFS obligation";
}

TEST(Eifs, SourceDoesNotFreeRideAfterHiddenAck)
{
    // The regression the EIFS fixes (DESIGN.md §4.0): in a 3-hop chain
    // with 550 m CS, the source cannot decode N2's transmissions' ACKs
    // (from N3, 600 m away) but *can* sense N2's data; EIFS makes it wait
    // out the ACK window. Net effect: the source's share of transmission
    // opportunities stays near its fair third.
    net::Scenario s = net::make_scenario1(0.02, 6);  // tiny warm-up scenario
    (void)s;  // scenario1 exercises it implicitly; direct check below
    net::Network::Config config = net::default_config(6);
    net::Network network(config);
    std::vector<net::NodeId> path;
    for (int i = 0; i <= 3; ++i) path.push_back(network.add_node({200.0 * i, 0.0}));
    network.add_flow(0, path);
    traffic::Sink sink(network);
    sink.attach_flow(0);
    traffic::CbrSource source(network, 0, 1000, 2e6);
    source.activate(0, 60 * kSecond);
    network.run_until(60 * kSecond);
    const double n0 = static_cast<double>(network.node(0).mac().data_attempts());
    const double n1 = static_cast<double>(network.node(1).mac().data_attempts());
    ASSERT_GT(n1, 100.0);
    // Without EIFS the measured ratio was ~1.7; with it the source stays
    // below ~1.45x of the first relay.
    EXPECT_LT(n0 / n1, 1.45);
}

}  // namespace
}  // namespace ezflow::mac

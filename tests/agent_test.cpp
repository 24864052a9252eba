#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "analysis/experiment.h"
#include "core/agent.h"
#include "net/topologies.h"
#include "traffic/source.h"

namespace ezflow::core {
namespace {

using util::kSecond;

/// A 4-hop line with EZ-Flow installed, driven by a saturating CBR source.
struct AgentBed {
    net::Scenario scenario;
    net::Network& net;
    std::map<net::NodeId, std::unique_ptr<EzFlowAgent>> agents;
    std::unique_ptr<traffic::CbrSource> source;

    explicit AgentBed(CaaConfig config = {}, double sniff_loss = 0.0, std::uint64_t seed = 5)
        : scenario(net::make_line(4, 600.0, seed)), net(*scenario.network)
    {
        agents = install_ezflow(net, config, 1000, sniff_loss);
        source = std::make_unique<traffic::CbrSource>(net, 0, 1000, 2e6);
        source->activate(util::from_seconds(5), util::from_seconds(605));
    }
};

TEST(Agent, InstallsOnSourceAndRelaysOnly)
{
    AgentBed bed;
    EXPECT_EQ(bed.agents.size(), 4u);  // N0..N3 transmit; N4 is the sink
    EXPECT_EQ(bed.agents.count(4), 0u);
}

TEST(Agent, InstallSkipsDuplicateNodesAcrossFlows)
{
    net::Scenario s = net::make_testbed(5, 100, 5, 100, 6);
    auto agents = install_ezflow(*s.network, CaaConfig{});
    // F1 spans N0..N6 (7 transmitters), F2 adds N0' only (N4..N6 shared).
    EXPECT_EQ(agents.size(), 8u);
}

TEST(Agent, BoeRecordsSentPackets)
{
    AgentBed bed;
    bed.net.run_until(30 * kSecond);
    const auto& state = bed.agents.at(0)->successors();
    ASSERT_EQ(state.count(1), 1u);
    EXPECT_GT(state.at(1)->boe.sent_recorded(), 100u);
}

TEST(Agent, BoeMatchesSniffedForwards)
{
    AgentBed bed;
    bed.net.run_until(60 * kSecond);
    // The source overhears N1's forwards constantly; estimates flow.
    EXPECT_GT(bed.agents.at(0)->samples_delivered(), 500u);
}

TEST(Agent, EstimateTrackMatchesBufferScale)
{
    AgentBed bed;
    bed.net.run_until(60 * kSecond);
    const auto& state = *bed.agents.at(0)->successors().at(1);
    // Sample the BOE's latest estimate of b1 every 100 ms over 60-120 s.
    // After stabilization it must be small (the integration suite checks
    // b1 itself; here we check the BOE's view agrees).
    std::vector<int> samples;
    sim::Scheduler& scheduler = bed.net.scheduler();
    std::function<void()> sample = [&] {
        samples.push_back(state.last_estimate);
        if (scheduler.now() + 100'000 < 120 * kSecond) scheduler.schedule_in(100'000, sample);
    };
    scheduler.schedule_in(0, sample);
    bed.net.run_until(120 * kSecond);

    ASSERT_GE(samples.size(), 100u);
    double sum = 0.0;
    for (const int estimate : samples) {
        EXPECT_GE(estimate, 0);
        sum += estimate;
    }
    EXPECT_LT(sum / static_cast<double>(samples.size()), 25.0);
}

TEST(Agent, CwStartsAtInitialAndAdapts)
{
    AgentBed bed;
    // The source starts at 5 s; 100 ms later fewer BOE samples than one
    // decision window (50) can have matched.
    bed.net.run_until(5 * kSecond + 100'000);
    const auto& state = *bed.agents.at(0)->successors().at(1);
    // Before the first decision the CAA holds the initial cw.
    ASSERT_EQ(state.caa->decisions(), 0u);
    EXPECT_EQ(state.caa->cw(), 16);
    EXPECT_EQ(bed.agents.at(0)->cw_toward(1), 16);
    bed.net.run_until(120 * kSecond);
    EXPECT_GT(state.caa->decisions(), 0u);
}

TEST(Agent, CwTowardUnknownSuccessorThrows)
{
    AgentBed bed;
    EXPECT_THROW(bed.agents.at(0)->cw_toward(99), std::invalid_argument);
}

TEST(Agent, SniffLossSlowsButDoesNotStopSampling)
{
    AgentBed lossless(CaaConfig{}, 0.0, 7);
    lossless.net.run_until(60 * kSecond);
    AgentBed lossy(CaaConfig{}, 0.9, 7);
    lossy.net.run_until(60 * kSecond);
    const auto full = lossless.agents.at(0)->samples_delivered();
    const auto degraded = lossy.agents.at(0)->samples_delivered();
    EXPECT_GT(degraded, 0u);
    EXPECT_LT(degraded, full / 2);
}

TEST(Agent, SniffLossStillStabilizes)
{
    // Sec. 3.2: "even in the hypothetical case where Nk is unable to hear
    // most of the forwarded packets, it will still adapt".
    analysis::ExperimentOptions options;
    options.mode = analysis::Mode::kEzFlow;
    options.boe_sniff_loss = 0.8;
    analysis::Experiment exp(net::make_line(4, 400.0, 8), options);
    exp.run();
    const double b1 = exp.buffers().mean(1, util::from_seconds(250), util::from_seconds(400));
    EXPECT_LT(b1, 20.0);
}

TEST(Agent, RejectsBadSniffLoss)
{
    net::Scenario s = net::make_line(2, 10, 9);
    EXPECT_THROW(EzFlowAgent(*s.network, 0, CaaConfig{}, 1000, 1.5), std::invalid_argument);
    EXPECT_THROW(EzFlowAgent(*s.network, 0, CaaConfig{}, 1000, -0.1), std::invalid_argument);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(EzFlowAgent(*s.network, 0, CaaConfig{}, 1000, nan), std::invalid_argument);
}

TEST(Agent, NanSniffLossFailsTheExperiment)
{
    // NaN once slipped past the range check and ran with no sniff loss.
    analysis::ExperimentOptions options;
    options.mode = analysis::Mode::kEzFlow;
    options.boe_sniff_loss = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(analysis::Experiment(net::make_line(4, 400.0, 8), options),
                 std::invalid_argument);
}

TEST(Agent, RejectsBadBoeHistoryAtConstruction)
{
    // Checked up front, not on the first transmission mid-run.
    net::Scenario s = net::make_line(2, 10, 9);
    EXPECT_THROW(EzFlowAgent(*s.network, 0, CaaConfig{}, 0), std::invalid_argument);
    EXPECT_THROW(EzFlowAgent(*s.network, 0, CaaConfig{}, 65536), std::invalid_argument);
}

TEST(Agent, MultipleSuccessorsGetIndependentCaa)
{
    // A node relaying two flows toward different successors runs one
    // BOE+CAA pair per successor (Sec. 3.1).
    net::Network::Config config = net::testbed_config(10);
    net::Network net(config);
    const auto hub = net.add_node({0, 0});
    const auto succ_a = net.add_node({200, 0});
    const auto succ_b = net.add_node({0, 200});
    const auto dst_a = net.add_node({400, 0});
    const auto dst_b = net.add_node({0, 400});
    net.add_flow(1, {hub, succ_a, dst_a});
    net.add_flow(2, {hub, succ_b, dst_b});
    auto agents = install_ezflow(net, CaaConfig{});
    traffic::CbrSource f1(net, 1, 1000, 1e6);
    traffic::CbrSource f2(net, 2, 1000, 1e6);
    f1.activate(0, 60 * kSecond);
    f2.activate(0, 60 * kSecond);
    net.run_until(60 * kSecond);
    const auto& hub_agent = *agents.at(hub);
    EXPECT_EQ(hub_agent.successors().size(), 2u);
    EXPECT_GT(hub_agent.successors().at(succ_a)->boe.sent_recorded(), 0u);
    EXPECT_GT(hub_agent.successors().at(succ_b)->boe.sent_recorded(), 0u);
}

TEST(Agent, AppliesCwToBothTrafficClasses)
{
    // EZ-Flow's cw must govern own-traffic and forwarded queues alike.
    AgentBed bed;
    bed.net.run_until(60 * kSecond);
    const int agent_cw = bed.agents.at(0)->cw_toward(1);
    EXPECT_EQ(bed.net.node(0).mac().queue_cw_min(mac::QueueKey{1, true}), agent_cw);
    EXPECT_EQ(bed.net.node(0).mac().queue_cw_min(mac::QueueKey{1, false}), agent_cw);
}

}  // namespace
}  // namespace ezflow::core

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "net/topologies.h"

// End-to-end checks of the phenomena the paper is built on. These are the
// scientific core of the reproduction:
//  * a 3-hop 802.11 chain is stable, a 4-hop chain is turbulent (Fig. 1);
//  * EZ-Flow stabilizes the 4-hop chain and raises goodput (Sec. 4/5);
//  * EZ-Flow raises the source's cw while relays stay aggressive (Fig. 8).
namespace ezflow::analysis {
namespace {

Experiment line_experiment(int hops, Mode mode, double duration_s, std::uint64_t seed)
{
    ExperimentOptions options;
    options.mode = mode;
    return Experiment(net::make_line(hops, duration_s, seed), options);
}

TEST(Instability, ThreeHopChainKeepsFirstRelayBounded)
{
    Experiment exp = line_experiment(3, Mode::kBaseline80211, 120.0, 21);
    exp.run();
    // Mean backlog at N1 stays well below the 50-packet buffer.
    const double mean_b1 = exp.buffers().mean(1, util::from_seconds(30), util::from_seconds(125));
    EXPECT_LT(mean_b1, 35.0);
}

TEST(Instability, FourHopChainSaturatesFirstRelay)
{
    Experiment exp = line_experiment(4, Mode::kBaseline80211, 120.0, 21);
    exp.run();
    const double mean_b1 = exp.buffers().mean(1, util::from_seconds(30), util::from_seconds(125));
    // Turbulence: the first relay's buffer rides near its 50-packet cap.
    EXPECT_GT(mean_b1, 40.0);
}

TEST(Instability, FourHopDropsPacketsAtRelay)
{
    Experiment exp = line_experiment(4, Mode::kBaseline80211, 120.0, 21);
    exp.run();
    EXPECT_GT(exp.network().node(1).forward_queue_drops(), 0u);
}

TEST(EzFlowStabilization, FourHopRelaysDrainUnderEzFlow)
{
    Experiment exp = line_experiment(4, Mode::kEzFlow, 300.0, 21);
    exp.run();
    // After convergence the relay buffers stay small (the paper's Fig. 4
    // shows ~5 packets at stabilized relays).
    const double mean_b1 = exp.buffers().mean(1, util::from_seconds(150), util::from_seconds(305));
    EXPECT_LT(mean_b1, 15.0);
}

TEST(EzFlowStabilization, SourceCwRisesRelaysStayAggressive)
{
    Experiment exp = line_experiment(4, Mode::kEzFlow, 300.0, 21);
    exp.run();
    const core::EzFlowAgent* source_agent = exp.agent(0);
    ASSERT_NE(source_agent, nullptr);
    const int source_cw = source_agent->cw_toward(1);
    // The paper's stable pattern: a contention-window distribution where
    // the source is throttled relative to the relays (q < 1 in [9]'s
    // terms). How far the source climbs depends on link capacities; on
    // this clean chain one doubling already stabilizes.
    EXPECT_GE(source_cw, 2 * (1 << 4)) << "source must throttle itself below relay aggressiveness";
    // Last relay (N3) never gets BOE samples (successor is the sink) and
    // stays at the initial aggressive window.
    const core::EzFlowAgent* last_relay = exp.agent(3);
    ASSERT_NE(last_relay, nullptr);
    EXPECT_EQ(last_relay->cw_toward(4), 1 << 4);
    EXPECT_GE(source_cw, 2 * last_relay->cw_toward(4));
}

TEST(EzFlowStabilization, GoodputNotWorseThanBaseline)
{
    Experiment base = line_experiment(4, Mode::kBaseline80211, 300.0, 22);
    base.run();
    Experiment ez = line_experiment(4, Mode::kEzFlow, 300.0, 22);
    ez.run();
    const auto base_summary = base.summarize(0, 100.0, 300.0);
    const auto ez_summary = ez.summarize(0, 100.0, 300.0);
    // The paper reports ~20% gain in scenario 1; require no regression
    // beyond noise here.
    EXPECT_GT(ez_summary.mean_kbps, base_summary.mean_kbps * 0.9);
}

TEST(EzFlowStabilization, DelayDropsByOrderOfMagnitude)
{
    Experiment base = line_experiment(4, Mode::kBaseline80211, 300.0, 23);
    base.run();
    Experiment ez = line_experiment(4, Mode::kEzFlow, 300.0, 23);
    ez.run();
    const auto base_summary = base.summarize(0, 150.0, 300.0);
    const auto ez_summary = ez.summarize(0, 150.0, 300.0);
    EXPECT_LT(ez_summary.mean_delay_s, base_summary.mean_delay_s * 0.5);
}

TEST(Penalty, StaticPolicyAlsoStabilizesFourHop)
{
    // Reference [9]'s penalty policy with q = 1/8 stabilizes the 4-hop
    // chain (EZ-Flow's contribution is finding q automatically).
    ExperimentOptions options;
    options.mode = Mode::kPenalty;
    options.penalty.relay_cw = 1 << 4;
    options.penalty.q = 1.0 / 8.0;
    Experiment exp(net::make_line(4, 300.0, 24), options);
    exp.run();
    const double mean_b1 = exp.buffers().mean(1, util::from_seconds(150), util::from_seconds(305));
    EXPECT_LT(mean_b1, 15.0);
}

TEST(ParkingLot, BaselineStarvesLongFlow)
{
    // Testbed topology, both flows active: under 802.11 the 7-hop F1 is
    // starved by the 4-hop F2 (Table 2: 7 vs 143 kb/s, FI = 0.55).
    ExperimentOptions options;
    options.mode = Mode::kBaseline80211;
    Experiment exp(net::make_testbed(5, 300, 5, 300, 25), options);
    exp.run();
    const auto f1 = exp.summarize(1, 100.0, 300.0);
    const auto f2 = exp.summarize(2, 100.0, 300.0);
    EXPECT_LT(f1.mean_kbps, f2.mean_kbps * 0.6) << "long flow should be starved";
}

TEST(ParkingLot, EzFlowImprovesFairness)
{
    ExperimentOptions base_options;
    base_options.mode = Mode::kBaseline80211;
    Experiment base(net::make_testbed(5, 400, 5, 400, 26), base_options);
    base.run();
    ExperimentOptions ez_options;
    ez_options.mode = Mode::kEzFlow;
    Experiment ez(net::make_testbed(5, 400, 5, 400, 26), ez_options);
    ez.run();
    const double fi_base = base.fairness({1, 2}, 200.0, 400.0);
    const double fi_ez = ez.fairness({1, 2}, 200.0, 400.0);
    EXPECT_GT(fi_ez, fi_base) << "Jain index must improve (paper: 0.55 -> 0.96)";
}

TEST(Adaptivity, EzFlowRecoversAfterFlowDeparture)
{
    // Scenario-1-style adaptivity: when the second flow leaves, the first
    // flow's cw distribution relaxes and goodput recovers.
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    Experiment exp(net::make_testbed(5, 600, 200, 400, 27), options);
    exp.run();
    const auto during = exp.summarize(1, 250.0, 400.0);
    const auto after = exp.summarize(1, 500.0, 600.0);
    EXPECT_GT(after.mean_kbps, during.mean_kbps);
}

}  // namespace
}  // namespace ezflow::analysis

// A-MPDU aggregation & block-ack: the BlockAckManager's selective
// retransmit and receiver scoreboard, the PHY's per-MPDU airtime spans,
// and the end-to-end properties the batch pipeline must keep —
// exactly-once in-order delivery under random loss, balanced drop
// ledgers under churn and kill-time scans, and deterministic replays at
// K > 1.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/drop_audit.h"
#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "experiment_fingerprint.h"
#include "mac/block_ack.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/topo_gen.h"
#include "phy/channel.h"
#include "phy/frame.h"
#include "sim/fault_injector.h"
#include "util/units.h"

namespace ezflow {
namespace {

using analysis::ExperimentFactory;
using analysis::ExperimentOptions;
using analysis::ScenarioSpec;
using mac::BlockAckManager;

// ------------------------------------------- BlockAckManager: sender side

net::Packet test_packet(std::uint64_t uid)
{
    net::Packet packet;
    packet.uid = uid;
    packet.flow_id = 1;
    packet.seq = uid;
    packet.bytes = 1000;
    return packet;
}

TEST(BlockAckSender, SelectiveRetransmitKeepsOnlyUnacked)
{
    BlockAckManager ba;
    for (std::uint32_t seq = 10; seq < 14; ++seq) ba.add_mpdu(test_packet(seq), seq);
    ASSERT_TRUE(ba.batch_active());
    EXPECT_EQ(ba.window_start(), 10u);

    // Block-ack acknowledges seq 10 and 12 (bits 0 and 2).
    const auto settled = ba.on_block_ack(10, 0b101, /*retry_limit=*/7);
    ASSERT_EQ(settled.acked.size(), 2u);
    EXPECT_EQ(settled.acked[0].seq, 10u);
    EXPECT_EQ(settled.acked[1].seq, 12u);
    EXPECT_TRUE(settled.dropped.empty());
    ASSERT_EQ(ba.window_size(), 2u);
    EXPECT_EQ(ba.window_start(), 11u);
    EXPECT_EQ(ba.window()[0].retry, 1);
    EXPECT_EQ(ba.window()[1].retry, 1);
}

TEST(BlockAckSender, SlidPastStartCountsAsAcked)
{
    BlockAckManager ba;
    for (std::uint32_t seq = 0; seq < 3; ++seq) ba.add_mpdu(test_packet(seq), seq);
    // A start beyond seq 0 and 1 acknowledges them even with a zero bitmap.
    const auto settled = ba.on_block_ack(2, 0, /*retry_limit=*/7);
    ASSERT_EQ(settled.acked.size(), 2u);
    EXPECT_EQ(ba.window_size(), 1u);
    EXPECT_EQ(ba.window_start(), 2u);
}

TEST(BlockAckSender, TimeoutPastRetryLimitDropsExactlyOnce)
{
    BlockAckManager ba;
    ba.add_mpdu(test_packet(5), 5);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const auto settled = ba.on_timeout(/*retry_limit=*/3);
        EXPECT_TRUE(settled.acked.empty());
        EXPECT_TRUE(settled.dropped.empty());
    }
    EXPECT_EQ(ba.window()[0].retry, 2);
    ba.on_timeout(3);
    const auto last = ba.on_timeout(3);  // retry 4 > limit 3
    ASSERT_EQ(last.dropped.size(), 1u);
    EXPECT_EQ(last.dropped[0].seq, 5u);
    EXPECT_FALSE(ba.batch_active());
}

TEST(BlockAckSender, NonAscendingSeqRejected)
{
    BlockAckManager ba;
    ba.add_mpdu(test_packet(4), 4);
    EXPECT_THROW(ba.add_mpdu(test_packet(3), 3), std::logic_error);
}

// ----------------------------------------- BlockAckManager: receiver side

phy::Frame aggregated_frame(net::NodeId from, net::NodeId to, std::uint32_t start, int count)
{
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    frame.tx_node = from;
    frame.rx_node = to;
    frame.mac_seq = start;
    frame.ba_start_seq = start;
    frame.ampdu = true;
    for (int i = 0; i < count; ++i) {
        phy::Mpdu mpdu;
        mpdu.packet = test_packet(start + static_cast<std::uint32_t>(i));
        mpdu.seq = start + static_cast<std::uint32_t>(i);
        frame.mpdus.push_back(mpdu);
    }
    return frame;
}

TEST(BlockAckReceiver, ScoresDedupsAndAnswers)
{
    BlockAckManager ba;
    const phy::Frame frame = aggregated_frame(7, 8, 0, 4);
    // Subframe 1 corrupted on the air.
    const auto first = ba.receive(frame, 0b0010);
    EXPECT_EQ(first.ok_bits, 0b1101u);
    EXPECT_EQ(first.duplicates, 0u);

    const auto response = ba.response_for(7);
    EXPECT_EQ(response.start, 0u);
    EXPECT_EQ(response.bitmap, 0b1101u);

    // Retransmission of the full batch: only the hole is new.
    const auto second = ba.receive(frame, 0);
    EXPECT_EQ(second.ok_bits, 0b0010u);
    EXPECT_EQ(second.duplicates, 3u);
    EXPECT_EQ(ba.response_for(7).bitmap, 0b1111u);
}

TEST(BlockAckReceiver, AdvertisedStartReleasesScoreboard)
{
    BlockAckManager ba;
    ba.receive(aggregated_frame(7, 8, 0, 2), 0);
    // The sender's window moved to 2: the next frame advertises it and the
    // receiver releases everything below.
    const auto verdict = ba.receive(aggregated_frame(7, 8, 2, 2), 0);
    EXPECT_EQ(verdict.release_below, 2u);
    EXPECT_EQ(verdict.ok_bits, 0b11u);
    const auto response = ba.response_for(7);
    EXPECT_EQ(response.start, 2u);
    EXPECT_EQ(response.bitmap, 0b11u);
}

// --------------------------------------------- PHY: A-MPDU airtime tiling

TEST(BlockAckReceiver, RejectsMpduBeyondTheBitmapWindow)
{
    // A sender window never spans more than 64 sequences, so an MPDU 64
    // or more past the advertised start is a protocol violation.
    BlockAckManager ba;
    phy::Frame frame = aggregated_frame(7, 8, 0, 2);
    frame.mpdus[1].seq = 64;
    EXPECT_THROW(ba.receive(frame, 0), std::logic_error);
}

TEST(AmpduPhy, SpanEndOffsetsTileTheAirtime)
{
    phy::PhyParams params;
    phy::Frame frame = aggregated_frame(0, 1, 0, 5);
    frame.mpdus[2].packet.bytes = 250;  // uneven MPDU sizes
    std::vector<util::SimTime> ends;
    params.span_end_offsets(frame, ends);
    ASSERT_EQ(ends.size(), 5u);
    for (std::size_t i = 1; i < ends.size(); ++i) EXPECT_GT(ends[i], ends[i - 1]);
    // The last offset is the whole PPDU airtime: per-MPDU interference
    // intervals tile the frame exactly, with no uncovered tail.
    EXPECT_EQ(ends.back(), params.tx_duration(frame));
    EXPECT_GT(ends.front(), params.plcp_overhead_us);
}

// --------------------- end to end: exactly-once, in-order, audited, deterministic

std::uint64_t total_block_acks(net::Network& network)
{
    std::uint64_t total = 0;
    for (int id = 0; id < network.node_count(); ++id)
        total += network.node(id).mac().block_acks_sent();
    return total;
}

TEST(AmpduSpec, BatchSizeOutsideTheBitmapWidthIsRejected)
{
    // K = 100 used to run as K = 64 under the name "-k100", and K = 0 as
    // K = 1; both now fail when the scenario is built.
    for (const int k : {0, -1, 65, 100}) {
        ScenarioSpec spec = ScenarioSpec::line(2, /*duration_s=*/1.0);
        spec.ampdu_max_mpdus = k;
        EXPECT_THROW(analysis::build_scenario(spec, /*seed=*/1), std::invalid_argument) << k;
    }
    for (const int k : {1, 64}) {
        ScenarioSpec spec = ScenarioSpec::line(2, /*duration_s=*/1.0);
        spec.ampdu_max_mpdus = k;
        net::Scenario scenario = analysis::build_scenario(spec, /*seed=*/1);
        EXPECT_EQ(scenario.network->node(0).mac().params().ampdu_max_mpdus, k);
    }
    // The network setter no longer clamps either.
    net::Scenario scenario = analysis::build_scenario(ScenarioSpec::line(2, 1.0), 1);
    net::Network& network = *scenario.network;
    EXPECT_THROW(network.set_ampdu_max_mpdus(65), std::invalid_argument);
    EXPECT_THROW(network.set_ampdu_max_mpdus(0), std::invalid_argument);
    EXPECT_EQ(network.node(0).mac().params().ampdu_max_mpdus, 1);
}

TEST(AmpduEndToEnd, RandomLossDeliversExactlyOnceInOrder)
{
    // 4-hop chain at K=8 with 15% loss in both directions of every hop:
    // data MPDUs, block-acks and retransmissions all get lost, so the
    // selective-retransmit, timeout and duplicate-suppression paths are
    // all exercised. Every delivered packet must arrive exactly once and
    // in sequence order (gaps from retry-limit drops are legitimate).
    ScenarioSpec spec = ScenarioSpec::line(4, /*duration_s=*/8.0);
    spec.ampdu_max_mpdus = 8;
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/5);
    net::Network& network = experiment->network();
    const auto& path = network.routing_table().path(0);  // line flows are id 0
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        network.channel().set_link_loss(path[i], path[i + 1], 0.15);
        network.channel().set_link_loss(path[i + 1], path[i], 0.15);
    }
    std::map<int, std::vector<std::uint64_t>> delivered;
    network.node(path.back())
        .add_delivery_handler(
            [&](const net::Packet& packet) { delivered[packet.flow_id].push_back(packet.seq); });
    experiment->run();
    experiment->run_until_s(20.0);

    ASSERT_FALSE(delivered.empty());
    for (const auto& [flow, seqs] : delivered) {
        ASSERT_FALSE(seqs.empty()) << "flow " << flow;
        for (std::size_t i = 1; i < seqs.size(); ++i)
            ASSERT_LT(seqs[i - 1], seqs[i])
                << "flow " << flow << " duplicate or out-of-order at delivery " << i;
    }
    EXPECT_GT(total_block_acks(network), 0u);  // aggregation actually engaged
    EXPECT_EQ(network.channel().frame_pool().live(), 0u);
    const auto ledger = analysis::audit_drop_accounting(*experiment);
    EXPECT_GT(ledger.generated, 0u);
}

TEST(AmpduEndToEnd, AggregatedRunsAreDeterministic)
{
    const auto fingerprint = [] {
        ScenarioSpec spec = ScenarioSpec::line(3, /*duration_s=*/4.0);
        spec.ampdu_max_mpdus = 4;
        ExperimentFactory factory(spec, ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
        experiment->run();
        return testutil::experiment_fingerprint(*experiment);
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(AmpduFaults, KillScanAtK4BalancesLedgerAndLeaksNothing)
{
    // The fault_test kill scan, rerun with batches in flight: the kill can
    // land mid-batch (sender window non-empty, receiver reorder buffer
    // holding), and the quiesce must surrender every window entry into
    // ampdu_node_down_drops with the conservation laws intact.
    for (int i = 0; i < 8; ++i) {
        const util::SimTime kill = util::from_seconds(5.2) + i * 13'777;
        ScenarioSpec spec = ScenarioSpec::line(4, /*duration_s=*/1.2);
        spec.ampdu_max_mpdus = 4;
        spec.faults.events.push_back({kill, net::FaultKind::kNodeDown, /*node=*/2, -1, -1});
        spec.faults.events.push_back(
            {kill + 300'000, net::FaultKind::kNodeUp, /*node=*/2, -1, -1});
        ExperimentFactory factory(spec, ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
        experiment->run();
        experiment->run_until_s(10.0);
        EXPECT_EQ(experiment->network().channel().frame_pool().live(), 0u) << "kill at " << kill;
        analysis::audit_drop_accounting(*experiment);  // throws on any leak
    }
}

TEST(AmpduFaults, ChurnedRunAtK4BalancesItsLedger)
{
    net::GridSpec grid;
    grid.cols = 4;
    grid.rows = 3;
    grid.sources = 3;
    grid.duration_s = 25.0;
    ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
    spec.ampdu_max_mpdus = 4;
    net::ChurnSpec churn;
    churn.candidates = {1, 2, 4, 5};
    churn.cycles = 6;
    churn.from_s = 7.0;
    churn.to_s = 28.0;
    churn.min_down_s = 0.5;
    churn.max_down_s = 2.0;
    spec.faults = net::FaultPlan::random_churn(churn, 99);
    ASSERT_FALSE(spec.faults.empty());
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/17);
    experiment->run();
    experiment->run_until_s(40.0);
    EXPECT_EQ(experiment->network().channel().frame_pool().live(), 0u);
    const auto ledger = analysis::audit_drop_accounting(*experiment);
    EXPECT_GT(ledger.generated, 0u);
    EXPECT_GT(total_block_acks(experiment->network()), 0u);
    const sim::FaultInjector* injector = experiment->fault_injector();
    EXPECT_EQ(injector->stats().node_downs, injector->stats().node_ups);
}

}  // namespace
}  // namespace ezflow

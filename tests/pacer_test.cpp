#include <gtest/gtest.h>

#include "analysis/recorder.h"
#include "core/pacer.h"
#include "net/topologies.h"
#include "traffic/sink.h"
#include "traffic/source.h"

namespace ezflow::core {
namespace {

using util::kMillisecond;
using util::kSecond;

net::Packet packet(std::uint64_t seq)
{
    net::Packet p;
    p.uid = seq;
    p.seq = seq;
    p.flow_id = 0;
    p.src = 0;
    p.dst = 1;  // delivered at the neighbour, not forwarded further
    p.bytes = 1000;
    p.checksum = static_cast<std::uint16_t>(seq);
    return p;
}

struct PacerBed {
    net::Scenario scenario;
    net::Network& net;

    explicit PacerBed(int hops = 2, std::uint64_t seed = 3)
        : scenario(net::make_line(hops, 1000.0, seed)), net(*scenario.network)
    {
    }
};

TEST(PacedQueue, ReleasesAtBaseInterval)
{
    PacerBed bed;
    PacedQueue queue(bed.net, 0, mac::QueueKey{1, true}, CaaConfig{}, 100, 50 * kMillisecond);
    for (int i = 0; i < 10; ++i) queue.push(packet(i));
    bed.net.run_until(kSecond);
    // 1 s / 50 ms = 20 release opportunities; all 10 released.
    EXPECT_EQ(queue.released(), 10u);
    EXPECT_EQ(queue.size(), 0);
}

TEST(PacedQueue, DropsWhenFull)
{
    PacerBed bed;
    PacedQueue queue(bed.net, 0, mac::QueueKey{1, true}, CaaConfig{}, 5, kSecond);
    for (int i = 0; i < 10; ++i) queue.push(packet(i));
    EXPECT_EQ(queue.size(), 5);
    EXPECT_EQ(queue.dropped(), 5u);
}

TEST(PacedQueue, CountsReleasesTheFullMacQueueRefuses)
{
    // A 1 us release interval overruns the MAC's 50-slot queue long
    // before its first transmission settles: every release is either
    // accepted by the MAC or counted as a release drop.
    PacerBed bed;
    PacedQueue queue(bed.net, 0, mac::QueueKey{1, true}, CaaConfig{}, 200, 1);
    for (int i = 0; i < 120; ++i) queue.push(packet(i));
    bed.net.run_until(kMillisecond);
    const mac::MacQueue* mac_queue = bed.net.node(0).mac().queues().find(mac::QueueKey{1, true});
    ASSERT_NE(mac_queue, nullptr);
    EXPECT_EQ(queue.released(), 120u);
    EXPECT_EQ(mac_queue->enqueued(), 50u);
    EXPECT_EQ(queue.release_drops(), 70u);
    EXPECT_EQ(queue.released(), mac_queue->enqueued() + queue.release_drops());
    EXPECT_EQ(queue.dropped(), 0u);
}

TEST(PacedQueue, CongestionSignalSlowsRelease)
{
    PacerBed bed;
    CaaConfig config;
    PacedQueue queue(bed.net, 0, mac::QueueKey{1, true}, config, 100, 10 * kMillisecond);
    const util::SimTime before = queue.release_interval();
    // Four full windows of over-threshold samples: cw 16 -> 32.
    for (int w = 0; w < 4; ++w)
        for (int s = 0; s < config.sample_window; ++s) queue.on_sample(30);
    EXPECT_EQ(queue.release_interval(), before * 2);
}

TEST(PacedQueue, IdleSignalRestoresRate)
{
    PacerBed bed;
    CaaConfig config;
    config.initial_cw = 1 << 6;
    PacedQueue queue(bed.net, 0, mac::QueueKey{1, true}, config, 100, 10 * kMillisecond);
    EXPECT_EQ(queue.release_interval(), 40 * kMillisecond);  // 10ms * 64/16
    for (int w = 0; w < 200; ++w)
        for (int s = 0; s < config.sample_window; ++s) queue.on_sample(0);
    EXPECT_EQ(queue.release_interval(), 10 * kMillisecond);  // back to min_cw pace
}

TEST(PacedQueue, Validation)
{
    PacerBed bed;
    EXPECT_THROW(PacedQueue(bed.net, 0, mac::QueueKey{1, true}, CaaConfig{}, 0, kSecond),
                 std::invalid_argument);
    EXPECT_THROW(PacedQueue(bed.net, 0, mac::QueueKey{1, true}, CaaConfig{}, 10, 0),
                 std::invalid_argument);
}

TEST(PacedAgent, InterceptsSourceAndForwardTraffic)
{
    PacerBed bed(3);
    auto agents = install_paced_ezflow(bed.net, PacedEzFlowAgent::Options{});
    traffic::CbrSource source(bed.net, 0, 1000, 2e6);
    source.activate(0, 30 * kSecond);
    bed.net.run_until(30 * kSecond);
    const PacedQueue* q0 = agents.at(0)->queue_toward(1);
    const PacedQueue* q1 = agents.at(1)->queue_toward(2);
    ASSERT_NE(q0, nullptr);
    ASSERT_NE(q1, nullptr);
    EXPECT_GT(q0->released(), 100u);
    EXPECT_GT(q1->released(), 100u);
}

TEST(PacedAgent, MacQueueStaysShallow)
{
    // The point of the variant: congestion lives in the routing-layer
    // queue; the MAC's 50-packet buffer stays nearly empty.
    PacerBed bed(4, 9);
    auto agents = install_paced_ezflow(bed.net, PacedEzFlowAgent::Options{});
    traffic::CbrSource source(bed.net, 0, 1000, 2e6);
    source.activate(0, 120 * kSecond);
    analysis::QueueTracer tracer(bed.net, analysis::QueueTracer::Quantity::kBacklog,
                                 {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 100 * kMillisecond);
    tracer.start();
    bed.net.run_until(120 * kSecond);
    for (int n = 0; n < 4; ++n) {
        // Far below the 50-packet cap: the backlog lives in the pacing
        // queue, not the MAC buffer.
        EXPECT_LT(tracer.mean(n, util::from_seconds(60), util::from_seconds(120)), 20.0)
            << "MAC queue at N" << n;
    }
}

TEST(PacedAgent, StabilizesFourHopChain)
{
    // End-to-end: the paced variant also removes the 4-hop turbulence —
    // relay MAC buffers stay small and traffic flows.
    PacerBed bed(4, 11);
    auto agents = install_paced_ezflow(bed.net, PacedEzFlowAgent::Options{});
    traffic::Sink sink(bed.net);
    sink.attach_flow(0);
    traffic::CbrSource source(bed.net, 0, 1000, 2e6);
    source.activate(0, 300 * kSecond);
    analysis::QueueTracer tracer(bed.net, analysis::QueueTracer::Quantity::kBacklog,
                                 {{1, 2}, {2, 3}, {3, 4}}, 100 * kMillisecond);
    tracer.start();
    bed.net.run_until(300 * kSecond);
    EXPECT_LT(tracer.mean(1, util::from_seconds(150), util::from_seconds(300)), 15.0);
    EXPECT_GT(sink.goodput_kbps(0, util::from_seconds(150), util::from_seconds(300)), 100.0);
}

TEST(PacedAgent, RejectsBadOptionsAtConstruction)
{
    // Checked up front, not when the first packet builds the per-successor
    // state mid-run.
    PacerBed bed(2);
    PacedEzFlowAgent::Options no_history;
    no_history.boe_history = 0;
    EXPECT_THROW(PacedEzFlowAgent(bed.net, 0, no_history), std::invalid_argument);
    PacedEzFlowAgent::Options huge_history;
    huge_history.boe_history = 65536;
    EXPECT_THROW(PacedEzFlowAgent(bed.net, 0, huge_history), std::invalid_argument);
    PacedEzFlowAgent::Options no_capacity;
    no_capacity.queue_capacity = 0;
    EXPECT_THROW(PacedEzFlowAgent(bed.net, 0, no_capacity), std::invalid_argument);
    PacedEzFlowAgent::Options no_interval;
    no_interval.base_interval = 0;
    EXPECT_THROW(PacedEzFlowAgent(bed.net, 0, no_interval), std::invalid_argument);
    // A rejected agent registered nothing, so a valid one still installs.
    EXPECT_NO_THROW(PacedEzFlowAgent(bed.net, 0, PacedEzFlowAgent::Options{}));
}

TEST(PacedAgent, SecondInterceptorRejected)
{
    PacerBed bed(2);
    PacedEzFlowAgent::Options options;
    PacedEzFlowAgent first(bed.net, 0, options);
    EXPECT_THROW(PacedEzFlowAgent(bed.net, 0, options), std::logic_error);
}

}  // namespace
}  // namespace ezflow::core

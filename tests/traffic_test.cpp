#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/topologies.h"
#include "reference_source.h"
#include "traffic/sink.h"
#include "traffic/source.h"

namespace ezflow::traffic {
namespace {

using util::kSecond;

/// Two-node network with one flow, for source/sink behaviour tests.
struct OneLink {
    net::Scenario scenario;
    net::Network& net;

    OneLink() : scenario(net::make_line(1, 1000.0, 9)), net(*scenario.network) {}
};

TEST(Cbr, GeneratesAtConfiguredRate)
{
    OneLink bed;
    // 80 kb/s with 1000 B packets -> one packet every 100 ms.
    CbrSource src(bed.net, 0, 1000, 80'000.0);
    src.activate(0, 10 * kSecond);
    bed.net.run_until(10 * kSecond);
    EXPECT_EQ(src.stats().generated, 100u);
}

TEST(Cbr, RespectsStartStop)
{
    OneLink bed;
    CbrSource src(bed.net, 0, 1000, 80'000.0);
    src.activate(2 * kSecond, 4 * kSecond);
    bed.net.run_until(10 * kSecond);
    // Active for 2 s at 10 packets/s.
    EXPECT_NEAR(static_cast<double>(src.stats().generated), 20.0, 1.0);
}

TEST(Cbr, SaturatingRateDropsAtSource)
{
    OneLink bed;
    // 2 Mb/s offered on a ~870 kb/s link: the own-traffic queue fills and
    // the source counts drops (the paper's greedy access point).
    CbrSource src(bed.net, 0, 1000, 2e6);
    src.activate(0, 5 * kSecond);
    bed.net.run_until(5 * kSecond);
    EXPECT_GT(src.stats().dropped_at_source, 0u);
    EXPECT_EQ(src.stats().generated, src.stats().accepted + src.stats().dropped_at_source);
}

TEST(Cbr, ActivateTwiceThrows)
{
    OneLink bed;
    CbrSource src(bed.net, 0, 1000, 1e5);
    src.activate(0, kSecond);
    EXPECT_THROW(src.activate(2 * kSecond, 3 * kSecond), std::logic_error);
    EXPECT_THROW(CbrSource(bed.net, 0, 1000, 0.0), std::invalid_argument);
}

TEST(Poisson, MeanRateApproximatesTarget)
{
    OneLink bed;
    PoissonSource src(bed.net, 0, 1000, 160'000.0);  // 20 pkt/s
    src.activate(0, 100 * kSecond);
    bed.net.run_until(100 * kSecond);
    EXPECT_NEAR(static_cast<double>(src.stats().generated), 2000.0, 150.0);
}

TEST(OnOff, AlternatesBurstsAndSilence)
{
    OneLink bed;
    OnOffSource src(bed.net, 0, 1000, 400'000.0, 1.0, 1.0);
    src.activate(0, 100 * kSecond);
    bed.net.run_until(100 * kSecond);
    // Peak 50 pkt/s with ~50% duty cycle: between 15% and 85% of peak.
    EXPECT_GT(src.stats().generated, 750u);
    EXPECT_LT(src.stats().generated, 4250u);
}

TEST(Cbr, ErrorCarryingTimelineMatchesAwkwardRate)
{
    // 1.7 Mb/s with 1000 B packets: the ideal interval is 4705.88 us. A
    // single truncated interval (4705 us) would overshoot the nominal
    // rate by ~1.9e-4; the error-carrying timeline must stay within
    // 0.01 % of nominal over a long run.
    OneLink bed;
    CbrSource src(bed.net, 0, 1000, 1.7e6);
    const double duration_s = 200.0;
    src.activate(0, util::from_seconds(duration_s));
    bed.net.run_until(util::from_seconds(duration_s));
    const double realized_bps =
        static_cast<double>(src.stats().generated) * 1000.0 * 8.0 / duration_s;
    EXPECT_NEAR(realized_bps / 1.7e6, 1.0, 1e-4);
}

TEST(Cbr, BackpressureGateSkipsEventsButKeepsAccounting)
{
    // 2 Mb/s offered on a ~870 kb/s link: the own-traffic queue fills and
    // stays full, so the gated source parks on vacancy callbacks instead
    // of burning one event per nominal packet period.
    OneLink bed;
    CbrSource src(bed.net, 0, 1000, 2e6);
    src.activate(0, 5 * kSecond);
    bed.net.run_until(5 * kSecond);

    const auto& stats = src.stats();
    EXPECT_GT(stats.gated_skips, 0u);  // the gate actually engaged
    EXPECT_EQ(stats.generated, stats.accepted + stats.dropped_at_source);

    // Queue-accounting invariants, including the closed-form drops.
    net::Node& node = bed.net.node(0);
    mac::MacQueue* queue = node.own_traffic_queue(0);
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->enqueued(), queue->dequeued() + static_cast<std::uint64_t>(queue->size()));
    EXPECT_EQ(queue->enqueued(), stats.accepted);
    EXPECT_EQ(queue->dropped_full(), stats.dropped_at_source);
    EXPECT_EQ(node.source_queue_drops(), stats.dropped_at_source);
}

/// Everything observable that could differ if the gated source and the
/// per-period reference emitter diverged (scheduler.processed() is
/// deliberately absent: saving events is the point). `generations` holds
/// each source's (generated, accepted, dropped_at_source); the sink's
/// highest delivered sequence number pins the packet numbering.
std::vector<std::uint64_t> source_run_fingerprint(net::Network& net, const Sink& sink, int flows,
                                                  const std::vector<std::uint64_t>& generations)
{
    std::vector<std::uint64_t> print = generations;
    print.push_back(net.channel().transmissions());
    print.push_back(net.channel().data_transmissions());
    for (int id = 0; id < net.node_count(); ++id) {
        net::Node& node = net.node(id);
        print.push_back(node.phy().frames_decoded());
        print.push_back(node.phy().frames_corrupted());
        print.push_back(node.mac().data_attempts());
        print.push_back(node.mac().successes());
        print.push_back(node.delivered());
        print.push_back(node.forwarded());
        print.push_back(node.source_queue_drops());
        for (const auto& queue : node.mac().queues().queues()) {
            print.push_back(queue->enqueued());
            print.push_back(queue->dequeued());
            print.push_back(queue->dropped_full());
        }
    }
    for (int flow = 0; flow < flows; ++flow) {
        const auto& rec = sink.flow(flow);
        print.push_back(rec.packets);
        print.push_back(rec.bytes);
        print.push_back(static_cast<std::uint64_t>(rec.max_seq_seen));
        print.push_back(static_cast<std::uint64_t>(rec.delay_us.mean() * 1e3));
    }
    return print;
}

/// One leg of a gated-vs-reference race: a `hops`-hop line with a sink on
/// flows 0..flows-1. Extra flows share flow 0's path, and so its
/// own-traffic queue at the source node (the voip_mesh shape).
struct RaceBed {
    net::Scenario scenario;
    net::Network& net;
    Sink sink;
    int flows;

    RaceBed(int hops, int flow_count, std::uint64_t seed)
        : scenario(net::make_line(hops, 30.0, seed)),
          net(*scenario.network),
          sink(net),
          flows(flow_count)
    {
        for (int f = 1; f < flows; ++f) net.add_flow(f, scenario.flows[0].path);
        for (int f = 0; f < flows; ++f) sink.attach_flow(f);
    }

    /// Activates `sources` (flow i = sources[i]) over [0, 20 s), runs to
    /// 25 s and fingerprints the run at every whole second. The CBR grids
    /// divide a second, so stats() is read mid-gate with a generation due
    /// exactly at the checkpoint, which the reference fires before the
    /// run stops.
    template <class SourcePtr>
    std::vector<std::uint64_t> race(const std::vector<SourcePtr>& sources)
    {
        for (SourcePtr source : sources) source->activate(0, 20 * kSecond);
        std::vector<std::uint64_t> print;
        for (SimTime t = kSecond; t <= 25 * kSecond; t += kSecond) {
            net.run_until(t);
            std::vector<std::uint64_t> generations;
            for (SourcePtr source : sources) {
                const auto& stats = source->stats();
                generations.insert(generations.end(),
                                   {stats.generated, stats.accepted, stats.dropped_at_source});
            }
            const auto checkpoint = source_run_fingerprint(net, sink, flows, generations);
            print.insert(print.end(), checkpoint.begin(), checkpoint.end());
        }
        return print;
    }
};

using testutil::ReferenceSource;

TEST(Gating, SharedQueueMatchesPerPeriodReferenceAcrossSeeds)
{
    // Two saturated CBR flows share one own-traffic queue: the
    // vacancy-ordered wakeups must reproduce the per-period interleaving
    // exactly.
    for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 42u}) {
        RaceBed gated_bed(3, 2, seed);
        CbrSource bulk(gated_bed.net, 0, 1000, 2e6);
        CbrSource second(gated_bed.net, 1, 200, 64'000.0);
        const auto gated = gated_bed.race(std::vector<Source*>{&bulk, &second});

        RaceBed reference_bed(3, 2, seed);
        ReferenceSource ref_bulk(reference_bed.net, 0, 1000, testutil::cbr_law(1000, 2e6));
        ReferenceSource ref_second(reference_bed.net, 1, 200, testutil::cbr_law(200, 64'000.0));
        const auto reference = reference_bed.race(std::vector{&ref_bulk, &ref_second});

        EXPECT_EQ(gated, reference) << "seed=" << seed;
        EXPECT_GT(bulk.stats().gated_skips, 0u) << "seed=" << seed;
        // The gate must actually save scheduler events on a saturated run.
        EXPECT_LT(gated_bed.net.scheduler().processed(),
                  reference_bed.net.scheduler().processed())
            << "seed=" << seed;
    }
}

TEST(Gating, PoissonSourceReproducesDrawSequence)
{
    // An Rng-drawing source saturating the link: closed-form accounting
    // must consume the exact same draw sequence as per-packet events.
    for (const std::uint64_t seed : {5u, 23u}) {
        RaceBed gated_bed(1, 1, seed);
        PoissonSource src(gated_bed.net, 0, 1000, 2.5e6);
        const auto gated = gated_bed.race(std::vector<Source*>{&src});

        RaceBed reference_bed(1, 1, seed);
        ReferenceSource ref(reference_bed.net, 0, 1000,
                            testutil::poisson_law(reference_bed.net, 1000, 2.5e6));
        const auto reference = reference_bed.race(std::vector{&ref});

        EXPECT_EQ(gated, reference) << "seed=" << seed;
        EXPECT_GT(src.stats().gated_skips, 0u) << "seed=" << seed;
    }
}

TEST(OnOff, BurstLengthsFollowTheOnDraws)
{
    // Non-saturating one-hop flow (peak 400 kb/s, 500 B packets, link
    // capacity well above), so deliveries track generations closely and
    // off-gaps (mean 5 s) are clearly separable from in-burst gaps
    // (10 ms): classify a >1 s delivery gap as a burst boundary.
    OneLink bed;
    Sink sink(bed.net);
    sink.attach_flow(0);
    OnOffSource src(bed.net, 0, 500, 400'000.0, /*mean_on_s=*/0.2, /*mean_off_s=*/5.0);
    src.activate(0, 400 * kSecond);
    bed.net.run_until(405 * kSecond);

    const auto& times = sink.flow(0).delay_series.times();
    ASSERT_GT(times.size(), 100u);
    std::vector<std::uint64_t> burst_lengths{1};
    for (std::size_t i = 1; i < times.size(); ++i) {
        if (times[i] - times[i - 1] > kSecond) burst_lengths.push_back(0);
        ++burst_lengths.back();
    }
    // The activation burst is a real on-draw, not the singleton the
    // pre-fix first-burst produced unconditionally.
    EXPECT_GE(burst_lengths.front(), 2u);
    // Burst count and mean length must match the configured on/off
    // process: ~60 cycles of ~5.2 s in 400 s, ~20 packets per 0.2 s
    // burst at 100 pkt/s (loose bounds; the run is one seeded sample).
    EXPECT_GT(burst_lengths.size(), 20u);
    EXPECT_LT(burst_lengths.size(), 130u);
    std::uint64_t total = 0;
    for (const std::uint64_t len : burst_lengths) total += len;
    const double mean_len = static_cast<double>(total) / static_cast<double>(burst_lengths.size());
    EXPECT_GT(mean_len, 5.0);
    EXPECT_LT(mean_len, 80.0);
}

TEST(Sink, RecordsDeliveriesAndDelay)
{
    OneLink bed;
    Sink sink(bed.net);
    sink.attach_flow(0);
    CbrSource src(bed.net, 0, 1000, 80'000.0);
    src.activate(0, 5 * kSecond);
    bed.net.run_until(6 * kSecond);
    const auto& rec = sink.flow(0);
    EXPECT_EQ(rec.packets, 50u);
    EXPECT_EQ(rec.bytes, 50'000u);
    // One uncontended hop takes ~9 ms.
    EXPECT_GT(rec.delay_us.mean(), 8000.0);
    EXPECT_LT(rec.delay_us.mean(), 20000.0);
    EXPECT_EQ(rec.duplicates, 0u);
    EXPECT_EQ(rec.reordered, 0u);
}

TEST(Sink, GoodputWindowed)
{
    OneLink bed;
    Sink sink(bed.net);
    sink.attach_flow(0);
    CbrSource src(bed.net, 0, 1000, 80'000.0);
    src.activate(0, 10 * kSecond);
    bed.net.run_until(10 * kSecond);
    EXPECT_NEAR(sink.goodput_kbps(0, 0, 10 * kSecond), 80.0, 4.0);
    EXPECT_DOUBLE_EQ(sink.goodput_kbps(0, 10 * kSecond, 10 * kSecond), 0.0);
}

TEST(Sink, GoodputMatchesADeliveryLogBitForBit)
{
    // Two sources of different payload sizes share flow 0, so deliveries
    // interleave 1000 B and 300 B packets and a misaligned byte entry
    // changes some window's sum.
    OneLink bed;
    Sink sink(bed.net);
    sink.attach_flow(0);
    std::vector<std::pair<util::SimTime, int>> log;
    bed.net.node(1).add_delivery_handler([&](const net::Packet& packet) {
        log.emplace_back(bed.net.scheduler().now(), packet.bytes);
    });
    CbrSource cbr(bed.net, 0, 1000, 80'000.0);
    PoissonSource poisson(bed.net, 0, 300, 60'000.0);
    cbr.activate(0, 10 * kSecond);
    poisson.activate(0, 10 * kSecond);
    bed.net.run_until(10 * kSecond);

    const auto& rec = sink.flow(0);
    ASSERT_GT(log.size(), 150u);
    ASSERT_EQ(rec.delay_series.size(), log.size());
    ASSERT_EQ(rec.delivered_bytes.size(), log.size());
    EXPECT_EQ(sink.stored_samples(), log.size());
    const std::vector<std::pair<util::SimTime, util::SimTime>> windows = {
        {0, 10 * kSecond},       {0, kSecond},           {kSecond, 2 * kSecond},
        {kSecond / 3, 7 * kSecond}, {9 * kSecond, 10 * kSecond}, {2 * kSecond, 2 * kSecond}};
    for (const auto& [from, to] : windows) {
        double bits = 0.0;
        for (const auto& [at, bytes] : log)
            if (at >= from && at < to) bits += static_cast<double>(bytes) * 8.0;
        const double reference = to > from ? util::kbps(static_cast<std::int64_t>(bits), to - from) : 0.0;
        EXPECT_EQ(sink.goodput_kbps(0, from, to), reference) << "[" << from << ", " << to << ")";
    }
}

TEST(Sink, UnknownFlowThrows)
{
    OneLink bed;
    Sink sink(bed.net);
    EXPECT_THROW(sink.flow(7), std::invalid_argument);
    EXPECT_THROW(sink.goodput_kbps(7, 0, 1), std::invalid_argument);
    sink.attach_flow(0);
    EXPECT_THROW(sink.attach_flow(0), std::invalid_argument);
}

TEST(Sink, SeparatesFlowsAtSharedDestination)
{
    // Two flows ending at the same node: records must not mix.
    net::Scenario s = net::make_testbed(0, 20, 0, 20, 11);
    net::Network& net = *s.network;
    Sink sink(net);
    sink.attach_flow(1);
    sink.attach_flow(2);
    CbrSource f2(net, 2, 1000, 50'000.0);
    f2.activate(0, 10 * kSecond);
    net.run_until(12 * kSecond);
    EXPECT_EQ(sink.flow(1).packets, 0u);
    EXPECT_GT(sink.flow(2).packets, 0u);
}

}  // namespace
}  // namespace ezflow::traffic

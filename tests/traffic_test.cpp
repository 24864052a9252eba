#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

TEST(Cbr, RejectsRatesThatAreNotFiniteAndPositive)
{
    // Regression: a NaN rate slipped past `rate <= 0` and the first
    // interval cast floor(NaN) to an integer; at 1e-12 b/s the interval
    // overflowed that cast and the source emitted every microsecond.
    OneLink bed;
    for (const double rate : {std::numeric_limits<double>::quiet_NaN(), -1e6,
                              std::numeric_limits<double>::infinity(), 1e-12})
        EXPECT_THROW(CbrSource(bed.net, 0, 1000, rate), std::invalid_argument) << rate;
    EXPECT_THROW(CbrSource(bed.net, 0, 0, 1e5), std::invalid_argument);
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
/// own-traffic queue at the source node (a second flow riding a bulk
/// flow's path).
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
    /// 25 s and fingerprints the run at every whole second. Paper-rate
    /// grids divide a second, so stats() is read mid-gate with a
    /// generation due exactly at the checkpoint, which the reference
    /// fires before the run stops.
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
        const auto gated = gated_bed.race(std::vector{&bulk, &second});

        RaceBed reference_bed(3, 2, seed);
        ReferenceSource ref_bulk(reference_bed.net, 0, 1000, 2e6);
        ReferenceSource ref_second(reference_bed.net, 1, 200, 64'000.0);
        const auto reference = reference_bed.race(std::vector{&ref_bulk, &ref_second});

        EXPECT_EQ(gated, reference) << "seed=" << seed;
        EXPECT_GT(bulk.stats().gated_skips, 0u) << "seed=" << seed;
        // The gate must actually save scheduler events on a saturated run.
        EXPECT_LT(gated_bed.net.scheduler().processed(),
                  reference_bed.net.scheduler().processed())
            << "seed=" << seed;
    }
}

TEST(Gating, AwkwardRateReproducesItsTimeline)
{
    // A saturating rate whose ideal interval is not a whole number of
    // microseconds (1000 B at 2.3 Mb/s: 3478.26 us): closed-form
    // accounting must step the error-carrying timeline exactly as
    // per-packet events do.
    for (const std::uint64_t seed : {5u, 23u}) {
        RaceBed gated_bed(1, 1, seed);
        CbrSource src(gated_bed.net, 0, 1000, 2.3e6);
        const auto gated = gated_bed.race(std::vector{&src});

        RaceBed reference_bed(1, 1, seed);
        ReferenceSource ref(reference_bed.net, 0, 1000, 2.3e6);
        const auto reference = reference_bed.race(std::vector{&ref});

        EXPECT_EQ(gated, reference) << "seed=" << seed;
        EXPECT_GT(src.stats().gated_skips, 0u) << "seed=" << seed;
    }
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
    CbrSource large(bed.net, 0, 1000, 80'000.0);
    CbrSource small(bed.net, 0, 300, 70'000.0);  // 34.29 ms: drifts against the 100 ms grid
    large.activate(0, 10 * kSecond);
    small.activate(0, 10 * kSecond);
    bed.net.run_until(10 * kSecond);

    const auto& rec = sink.flow(0);
    ASSERT_GT(log.size(), 150u);
    ASSERT_EQ(rec.deliveries.size(), log.size());
    const util::TimeSeries delays = rec.deliveries.delay_series();
    ASSERT_EQ(delays.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(delays.times()[i], log[i].first) << i;
    EXPECT_EQ(sink.stored_samples(), log.size());
    const std::vector<std::pair<util::SimTime, util::SimTime>> windows = {
        {0, 10 * kSecond},       {0, kSecond},           {kSecond, 2 * kSecond},
        {kSecond / 3, 7 * kSecond}, {9 * kSecond, 10 * kSecond}, {2 * kSecond, 2 * kSecond}};
    for (const auto& [from, to] : windows) {
        double bits = 0.0;
        for (const auto& [at, bytes] : log)
            if (at >= from && at < to) bits += static_cast<double>(bytes) * 8.0;
        const double reference =
            to > from ? util::kbps(static_cast<std::int64_t>(bits), to - from) : 0.0;
        EXPECT_EQ(sink.goodput_kbps(0, from, to), reference) << "[" << from << ", " << to << ")";
    }
}

/// Test-local delivery log: the (instant, delay) doubles and sizes the
/// chunked DeliveryLog replaces, queried the way the sink queried them.
struct ReferenceLog {
    util::TimeSeries delays;
    std::vector<std::uint16_t> bytes;

    void add(DeliveryLog& log, util::SimTime at, util::SimTime delay, std::uint16_t size)
    {
        log.add(at, delay, size);
        delays.add(at, static_cast<double>(delay));
        bytes.push_back(size);
    }

    double goodput_kbps(util::SimTime from, util::SimTime to) const
    {
        if (to <= from) return 0.0;
        double bits = 0.0;
        for (std::size_t i = 0; i < bytes.size(); ++i)
            if (delays.times()[i] >= from && delays.times()[i] < to)
                bits += static_cast<double>(bytes[i]) * 8.0;
        return util::kbps(static_cast<std::int64_t>(bits), to - from);
    }
};

/// Every query of `log` against the reference, bit for bit, over windows
/// whose edges sit on, between and outside the delivery instants around
/// each index in `pivots`.
void expect_log_matches(const DeliveryLog& log, const ReferenceLog& ref,
                        const std::vector<std::size_t>& pivots)
{
    ASSERT_EQ(log.size(), ref.bytes.size());
    const util::TimeSeries series = log.delay_series();
    EXPECT_EQ(series.times(), ref.delays.times());
    EXPECT_EQ(series.values(), ref.delays.values());
    const std::vector<util::SimTime>& t = ref.delays.times();
    const util::SimTime first = t.front();
    const util::SimTime last = t.back();
    std::vector<std::pair<util::SimTime, util::SimTime>> windows = {
        {first - 10, last + 10},  // everything
        {first - 10, first},      // ends on the first delivery
        {last + 1, last + 10},    // after the last
        {last, last + 1},         // the last instant alone
        {last, first},            // inverted
    };
    for (const std::size_t i : pivots) {
        for (const std::size_t j : {i + 1, i + 3, i + 150, ref.bytes.size() - 1}) {
            if (j <= i || j >= t.size()) continue;
            windows.emplace_back(t[i], t[j]);          // on instants: from in, to out
            windows.emplace_back(t[i] + 1, t[j] - 1);  // between instants
            windows.emplace_back(t[i] - 1, t[j] + 1);
            windows.emplace_back(t[i], t[i]);  // empty
        }
    }
    for (const auto& [from, to] : windows) {
        SCOPED_TRACE("[" + std::to_string(from) + ", " + std::to_string(to) + ")");
        const util::RunningStats stats = log.delay_stats(from, to);
        EXPECT_EQ(stats.count(), ref.delays.count_between(from, to));
        EXPECT_EQ(stats.mean(), ref.delays.mean_between(from, to));
        EXPECT_EQ(stats.max(), ref.delays.max_between(from, to));
        EXPECT_EQ(log.goodput_kbps(from, to), ref.goodput_kbps(from, to));
    }
}

TEST(DeliveryLog, MatchesReferenceAcrossChunkBoundaries)
{
    // 1,000 deliveries fill two 408-entry chunks and part of a third.
    // Deliveries 400..420 share one instant, so equal instants straddle
    // the first boundary; sizes and delays vary so a misaligned entry
    // moves some window's result.
    DeliveryLog log;
    ReferenceLog ref;
    EXPECT_EQ(log.size(), 0u);
    util::SimTime at = 5'000;
    for (std::size_t i = 0; i < 1'000; ++i) {
        if (i < 400 || i > 420) at += 1 + static_cast<util::SimTime>((i * 7'919) % 50'000);
        const auto delay = static_cast<util::SimTime>(1'000 + (i * 104'729) % 900'000);
        const auto size = static_cast<std::uint16_t>(i % 3 == 0 ? 300 : 1'000 + i % 500);
        ref.add(log, at, delay, size);
    }
    expect_log_matches(log, ref, {0, 1, 200, 399, 400, 407, 408, 409, 420, 815, 816, 817, 998});
}

TEST(DeliveryLog, GapBeyondThirtyTwoBitsOpensANewChunk)
{
    // An offset of 2^32 - 1 us still fits the chunk; 2^32 does not, so
    // each such gap starts a chunk at the delivery's own instant.
    constexpr util::SimTime kMaxOffset = 0xFFFFFFFF;
    DeliveryLog log;
    ReferenceLog ref;
    ref.add(log, 100, 10, 500);
    ref.add(log, 200, 20, 600);
    ref.add(log, 100 + kMaxOffset, 30, 700);      // fits the first chunk
    ref.add(log, 200 + kMaxOffset + 1, 40, 800);  // does not
    ref.add(log, 200 + 3 * kMaxOffset, 50, 900);
    ref.add(log, 200 + 3 * kMaxOffset, 60, 1'000);
    for (int i = 0; i < 500; ++i) ref.add(log, 200 + 3 * kMaxOffset + i * 1'000, 70 + i, 1'100);
    expect_log_matches(log, ref, {0, 1, 2, 3, 4, 5, 6, 400});
}

TEST(DeliveryLog, DelayBeyondThirtyTwoBitsIsKeptExactly)
{
    // Delays from 2^32 - 1 us (the marker value itself) up are kept in
    // the side table, keyed by delivery index, including ones past the
    // first chunk that a window starting mid-log reaches.
    constexpr util::SimTime kLong = 0xFFFFFFFF;
    DeliveryLog log;
    ReferenceLog ref;
    for (std::size_t i = 0; i < 900; ++i) {
        util::SimTime delay = 1'000 + static_cast<util::SimTime>(i);
        if (i == 3) delay = kLong - 1;
        if (i == 4 || i == 500) delay = kLong;
        if (i == 5 || i == 600) delay = kLong + 7;
        if (i == 830) delay = 10'000'000'000'000;  // 116 days
        ref.add(log, static_cast<util::SimTime>(i) * 100'000, delay, 1'000);
    }
    expect_log_matches(log, ref, {0, 3, 4, 5, 6, 499, 500, 501, 600, 829, 830});
    EXPECT_EQ(log.delay_stats(0, 1'000 * kSecond).max(), 1e13);
}

TEST(DeliveryLog, RejectsDecreasingInstantsAndNegativeDelays)
{
    DeliveryLog log;
    log.add(50, 1, 100);
    log.add(50, 1, 100);  // equal instants are fine
    EXPECT_THROW(log.add(49, 1, 100), std::invalid_argument);
    for (int i = 0; i < 406; ++i) log.add(60, 1, 100);  // the first chunk is full
    EXPECT_THROW(log.add(59, 1, 100), std::invalid_argument);
    log.add(60, 1, 100);  // the second chunk's first entry
    EXPECT_THROW(log.add(59, 1, 100), std::invalid_argument);
    EXPECT_THROW(log.add(70, -1, 100), std::invalid_argument);
    EXPECT_EQ(log.size(), 409u);
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

TEST(Sink, PacketBeyondSixteenBitsThrowsInsteadOfWrapping)
{
    // The delivery log keeps 2 B per packet; a larger packet than that can
    // hold is refused loudly, while streaming mode keeps no log to narrow.
    for (const bool streaming : {false, true}) {
        OneLink bed;
        Sink sink(bed.net);
        sink.set_streaming(streaming);
        sink.attach_flow(0);
        net::Packet packet;
        packet.flow_id = 0;
        packet.src = 0;
        packet.dst = 1;
        packet.bytes = 70'000;
        ASSERT_TRUE(bed.net.node(0).send(packet));
        if (streaming) {
            bed.net.run_until(10 * kSecond);
            EXPECT_EQ(sink.flow(0).bytes, 70'000u);
        } else {
            EXPECT_THROW(bed.net.run_until(10 * kSecond), std::overflow_error);
        }
    }
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

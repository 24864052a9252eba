#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mac/dcf.h"
#include "mac/mac_queue.h"
#include "phy/channel.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::mac {
namespace {

using util::SimTime;
using util::kSecond;

// ------------------------------------------------------------ MacQueue

TEST(MacQueue, PushPopFifo)
{
    MacQueue q(QueueKey{1, false}, 3, 32);
    net::Packet p;
    for (std::uint64_t i = 0; i < 3; ++i) {
        p.seq = i;
        EXPECT_TRUE(q.push(p));
    }
    EXPECT_EQ(q.size(), 3);
    EXPECT_EQ(q.front().seq, 0u);
    q.pop();
    EXPECT_EQ(q.front().seq, 1u);
    EXPECT_EQ(q.dequeued(), 1u);
}

TEST(MacQueue, RingKeepsFifoOrderAcrossWrapAndGrowth)
{
    // Interleave pushes, pops and batch pops so the ring grows to 4, 8,
    // 16 and the capacity of 20 slots and wraps at each size (at 20 on
    // the refill below): packets must leave in push order.
    MacQueue q(QueueKey{1, false}, 20, 32);
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::vector<net::Packet> batch;
    const auto push = [&](int n) {
        for (int i = 0; i < n; ++i) {
            net::Packet p;
            p.seq = pushed++;
            ASSERT_TRUE(q.push(p));
        }
    };
    for (int round = 0; round < 6; ++round) {
        push(3 + round);
        ASSERT_EQ(q.front().seq, popped);
        q.pop();
        ++popped;
        batch.clear();
        EXPECT_EQ(q.pop_batch(2, 0, batch), 2);
        for (const net::Packet& p : batch) EXPECT_EQ(p.seq, popped++);
    }
    EXPECT_EQ(q.size(), static_cast<int>(pushed - popped));
    while (!q.empty()) {
        EXPECT_EQ(q.front().seq, popped++);
        q.pop();
    }
    EXPECT_EQ(popped, pushed);
    // Fill to capacity, flush, refill: the ring restarts cleanly.
    push(20);
    net::Packet extra;
    EXPECT_FALSE(q.push(extra));
    EXPECT_EQ(q.flush_node_down(), 20u);
    push(5);
    EXPECT_EQ(q.front().seq, pushed - 5);
    EXPECT_EQ(q.enqueued(), q.dequeued() + q.dropped_node_down() + 5);
}

TEST(MacQueue, DropTailWhenFull)
{
    MacQueue q(QueueKey{1, false}, 2, 32);
    net::Packet p;
    EXPECT_TRUE(q.push(p));
    EXPECT_TRUE(q.push(p));
    EXPECT_FALSE(q.push(p));
    EXPECT_EQ(q.dropped_full(), 1u);
    EXPECT_EQ(q.size(), 2);
}

TEST(MacQueue, FrontPopOnEmptyThrow)
{
    MacQueue q(QueueKey{1, false}, 2, 32);
    EXPECT_THROW(q.front(), std::logic_error);
    EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(MacQueue, CwMinValidation)
{
    MacQueue q(QueueKey{1, false}, 2, 32);
    q.set_cw_min(1 << 10);
    EXPECT_EQ(q.cw_min(), 1 << 10);
    EXPECT_THROW(q.set_cw_min(0), std::invalid_argument);
    EXPECT_THROW(MacQueue(QueueKey{1, false}, 0, 32), std::invalid_argument);
}

TEST(MacQueueSet, EnsureCreatesOnce)
{
    MacQueueSet set;
    const MacParams params;
    MacQueue& a = set.ensure(QueueKey{1, false}, params);
    MacQueue& b = set.ensure(QueueKey{1, false}, params);
    EXPECT_EQ(&a, &b);
    MacQueue& own = set.ensure(QueueKey{1, true}, params);
    EXPECT_NE(&a, &own);  // own-traffic queue is separate (paper Sec. 3.1)
}

TEST(MacQueueSet, RoundRobinSkipsEmpty)
{
    MacQueueSet set;
    const MacParams params;
    MacQueue& q1 = set.ensure(QueueKey{1, false}, params);
    set.ensure(QueueKey{2, false}, params);
    MacQueue& q3 = set.ensure(QueueKey{3, false}, params);
    net::Packet p;
    q1.push(p);
    q3.push(p);
    EXPECT_EQ(set.next_nonempty(), &q1);
    EXPECT_EQ(set.next_nonempty(), &q3);
    EXPECT_EQ(set.next_nonempty(), &q1);  // wraps, skipping empty q2
}

TEST(MacQueueSet, NextNonemptyOnAllEmpty)
{
    MacQueueSet set;
    const MacParams params;
    EXPECT_EQ(set.next_nonempty(), nullptr);
    set.ensure(QueueKey{1, false}, params);
    EXPECT_EQ(set.next_nonempty(), nullptr);
}

TEST(MacQueueSet, TotalPacketsSumsQueues)
{
    MacQueueSet set;
    const MacParams params;
    net::Packet p;
    set.ensure(QueueKey{1, false}, params).push(p);
    set.ensure(QueueKey{2, false}, params).push(p);
    set.ensure(QueueKey{2, false}, params).push(p);
    EXPECT_EQ(set.total_packets(), 3);
}

// ------------------------------------------------------------- DcfMac

/// Two-or-more-node MAC test bench with delivery/sniff recording.
struct MacBed {
    sim::Scheduler scheduler;
    phy::PhyParams phy_params;
    MacParams mac_params;  ///< the one set every MAC of the bed reads
    phy::Channel channel;
    ContentionCoordinator coordinator{scheduler};
    std::vector<std::unique_ptr<phy::NodePhy>> phys;
    std::vector<std::unique_ptr<DcfMac>> macs;
    std::vector<std::unique_ptr<class Recorder>> recorders;

    explicit MacBed(MacParams mp = {}, phy::PhyParams pp = {}, std::uint64_t seed = 7)
        : phy_params(pp), mac_params(mp), channel(scheduler, util::Rng(seed), pp)
    {
    }

    DcfMac& add(double x, double y = 0.0);
};

class Recorder final : public MacCallbacks {
public:
    std::vector<net::Packet> received;  ///< newly delivered MPDUs
    std::vector<phy::Frame> sniffed;
    std::vector<net::Packet> first_tx;
    std::vector<net::Packet> successes;
    std::vector<net::Packet> drops;

    void mac_rx(const phy::Frame& frame, std::uint64_t ok_bits, std::uint32_t) override
    {
        for (std::size_t i = 0; i < frame.mpdus.size(); ++i)
            if ((ok_bits >> i) & 1) received.push_back(frame.mpdus[i].packet);
    }
    void mac_sniffed(const phy::Frame& frame) override { sniffed.push_back(frame); }
    void mac_first_tx(const QueueKey&, const net::Packet& p) override { first_tx.push_back(p); }
    void mac_tx_success(const QueueKey&, const net::Packet& p) override { successes.push_back(p); }
    void mac_tx_drop(const QueueKey&, const net::Packet& p) override { drops.push_back(p); }
};

DcfMac& MacBed::add(double x, double y)
{
    const auto id = static_cast<net::NodeId>(phys.size());
    phys.push_back(std::make_unique<phy::NodePhy>(id, phy::Position{x, y}, scheduler));
    channel.attach(*phys.back());
    macs.push_back(
        std::make_unique<DcfMac>(*phys.back(), coordinator, util::Rng(1000 + id), mac_params));
    recorders.push_back(std::make_unique<Recorder>());
    macs.back()->set_callbacks(recorders.back().get());
    return *macs.back();
}

net::Packet packet(std::uint64_t seq, int bytes = 1000)
{
    net::Packet p;
    p.uid = seq;
    p.seq = seq;
    p.flow_id = 0;
    p.bytes = bytes;
    p.checksum = static_cast<std::uint16_t>(seq * 7919);
    return p;
}

/// Keep `mac`'s queue toward `key` saturated: tops it up to capacity every
/// 10 ms (the DropTail queue holds only 50 packets, so tests cannot
/// enqueue their whole workload up front).
class Saturator {
public:
    Saturator(MacBed& bed, DcfMac& mac, QueueKey key, int bytes = 1000)
        : bed_(bed), mac_(mac), key_(key), bytes_(bytes)
    {
        top_up();
    }

private:
    void top_up()
    {
        while (mac_.enqueue(key_, packet(next_seq_++, bytes_))) {
        }
        bed_.scheduler.schedule_in(10 * util::kMillisecond, [this] { top_up(); });
    }

    MacBed& bed_;
    DcfMac& mac_;
    QueueKey key_;
    int bytes_;
    std::uint64_t next_seq_ = 0;
};

TEST(Dcf, SinglePacketDeliveredAndAcked)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    ASSERT_EQ(bed.recorders[1]->received.size(), 1u);
    EXPECT_EQ(bed.recorders[0]->successes.size(), 1u);
    EXPECT_EQ(a.successes(), 1u);
    EXPECT_EQ(a.retransmissions(), 0u);
    EXPECT_EQ(bed.macs[1]->acks_sent(), 1u);
    EXPECT_EQ(a.queues().total_packets(), 0);
}

TEST(Dcf, FirstTxHookFiresOncePerPacket)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    for (int i = 0; i < 5; ++i) a.enqueue(QueueKey{1, true}, packet(i));
    bed.scheduler.run_until(kSecond);
    EXPECT_EQ(bed.recorders[0]->first_tx.size(), 5u);
    EXPECT_EQ(bed.recorders[0]->successes.size(), 5u);
}

TEST(Dcf, RetriesUntilLimitThenDrops)
{
    MacBed bed;
    bed.channel.set_link_loss(0, 1, 1.0);  // nothing ever arrives
    DcfMac& a = bed.add(0);
    bed.add(200);
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(10 * kSecond);
    EXPECT_EQ(bed.recorders[0]->drops.size(), 1u);
    EXPECT_EQ(a.retry_drops(), 1u);
    // 1 initial attempt + retry_limit retransmissions.
    EXPECT_EQ(a.data_attempts(), static_cast<std::uint64_t>(1 + bed.mac_params.retry_limit));
    EXPECT_EQ(bed.recorders[1]->received.size(), 0u);
}

// ------------------------------ one pipeline: the block-ack agreement picks
// how a batch is filled and answered, nothing else

/// The one data frame a bystander sniffed.
const phy::Frame& sniffed_data(const Recorder& bystander)
{
    const phy::Frame* data = nullptr;
    for (const phy::Frame& frame : bystander.sniffed) {
        if (frame.type != phy::FrameType::kData) continue;
        EXPECT_EQ(data, nullptr) << "more than one data frame on the air";
        data = &frame;
    }
    if (data == nullptr) throw std::logic_error("no data frame sniffed");
    return *data;
}

TEST(Dcf, LoneMpduIsAnsweredByANormalAck)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    bed.add(100, 100);  // bystander
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    EXPECT_EQ(a.successes(), 1u);
    EXPECT_EQ(bed.recorders[1]->received.size(), 1u);
    EXPECT_EQ(b.acks_sent(), 1u);
    EXPECT_EQ(b.block_acks_sent(), 0u);
    const phy::Frame& data = sniffed_data(*bed.recorders[2]);
    EXPECT_FALSE(data.ampdu);
    ASSERT_EQ(data.mpdus.size(), 1u);
    // No A-MPDU delimiter: 192 us PLCP + (1000 + 36) * 8 bits.
    EXPECT_EQ(bed.phy_params.tx_duration(data), 192 + 8288);
}

TEST(Dcf, RetransmissionAfterLostAckIsSuppressedByTheScoreboard)
{
    MacBed bed;
    bed.channel.set_link_loss(1, 0, 1.0);  // every ACK is lost
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(10 * kSecond);
    // Every attempt is decoded and answered; all but the first are
    // duplicates of the one delivered MPDU.
    const auto attempts = static_cast<std::uint64_t>(1 + bed.mac_params.retry_limit);
    EXPECT_EQ(a.data_attempts(), attempts);
    EXPECT_EQ(b.acks_sent(), attempts);
    EXPECT_EQ(b.dup_rx_suppressed(), attempts - 1);
    EXPECT_EQ(bed.recorders[1]->received.size(), 1u);
    EXPECT_EQ(a.retry_drops(), 1u);
}

TEST(Dcf, RtsCtsExchangeCompletesForALoneMpdu)
{
    MacParams mp;
    mp.rts_cts_enabled = true;
    MacBed bed(mp);
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    EXPECT_EQ(a.successes(), 1u);
    EXPECT_EQ(bed.recorders[1]->received.size(), 1u);
    EXPECT_EQ(b.acks_sent(), 1u);
    EXPECT_EQ(bed.channel.transmissions(), 4u);  // RTS, CTS, data, ACK
    EXPECT_EQ(bed.channel.data_transmissions(), 1u);
}

TEST(Dcf, BlockAckAgreementSendsEvenOnePacketAsAnAmpdu)
{
    // K > 1 with a single packet queued: still a one-subframe A-MPDU,
    // delimiter included, answered by a compressed block-ack.
    MacBed bed;
    bed.mac_params.ampdu_max_mpdus = 4;  // every MAC of the bed reads it
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    bed.add(100, 100);  // bystander
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    EXPECT_EQ(a.successes(), 1u);
    EXPECT_EQ(bed.recorders[1]->received.size(), 1u);
    EXPECT_EQ(b.block_acks_sent(), 1u);
    EXPECT_EQ(b.acks_sent(), 0u);
    const phy::Frame& data = sniffed_data(*bed.recorders[2]);
    EXPECT_TRUE(data.ampdu);
    ASSERT_EQ(data.mpdus.size(), 1u);
    EXPECT_EQ(bed.phy_params.tx_duration(data), 192 + 8288 + 4 * 8);
}

TEST(Dcf, NavExpiryNeverOutlivesItsMac)
{
    // w overhears a's data frame to b and gets a packet while its NAV
    // runs, which schedules the NAV expiry. A quiesce, or destroying the
    // MAC, must cancel exactly that event.
    for (const bool destroy : {false, true}) {
        MacBed bed;
        DcfMac& a = bed.add(0);
        bed.add(200);
        DcfMac& w = bed.add(100, 150);
        a.enqueue(QueueKey{1, true}, packet(0));
        while (w.nav_until() == 0) bed.scheduler.run_until(bed.scheduler.now() + 1);
        ASSERT_GT(w.nav_until(), bed.scheduler.now());
        w.enqueue(QueueKey{0, true}, packet(1));
        const std::size_t pending = bed.scheduler.pending();
        if (destroy) {
            bed.macs[2].reset();
            EXPECT_EQ(bed.scheduler.pending(), pending - 1);
            continue;  // w's PHY is left without a listener: run no further
        }
        w.quiesce();
        EXPECT_EQ(bed.scheduler.pending(), pending - 1);
        bed.scheduler.run_until(kSecond);
        EXPECT_EQ(a.successes(), 1u);
        EXPECT_EQ(w.data_attempts(), 0u);
    }
}

TEST(Dcf, UnusedMacQuiescesRevivesAndDiesWithoutTouchingTheScheduler)
{
    // w never enqueues and is never addressed: it only overhears a's
    // exchange, so it has no frame-exchange state. Taking it down,
    // bringing it back and destroying it must neither schedule nor
    // cancel anything, mid-exchange or after it.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    DcfMac& w = bed.add(100, 150);
    a.enqueue(QueueKey{1, true}, packet(0));
    while (w.nav_until() == 0) bed.scheduler.run_until(bed.scheduler.now() + 1);
    const std::size_t pending = bed.scheduler.pending();
    const std::uint64_t processed = bed.scheduler.processed();
    w.quiesce();
    EXPECT_EQ(bed.scheduler.pending(), pending);
    EXPECT_EQ(bed.scheduler.processed(), processed);
    w.revive();
    EXPECT_EQ(bed.scheduler.pending(), pending);
    EXPECT_EQ(bed.scheduler.processed(), processed);
    EXPECT_EQ(w.in_flight_mpdus(), 0u);
    EXPECT_EQ(w.ampdu_pending(), 0u);
    bed.scheduler.run_until(kSecond);
    EXPECT_EQ(a.successes(), 1u);
    // The counters live in the exchange w never built: all nine read 0.
    for (const std::uint64_t counter :
         {w.data_attempts(), w.retransmissions(), w.retry_drops(), w.acks_sent(), w.successes(),
          w.dup_rx_suppressed(), w.teardown_aborts(), w.ampdu_node_down_drops(),
          w.block_acks_sent()})
        EXPECT_EQ(counter, 0u);
    const std::size_t idle_pending = bed.scheduler.pending();
    const std::uint64_t idle_processed = bed.scheduler.processed();
    bed.macs[2].reset();
    EXPECT_EQ(bed.scheduler.pending(), idle_pending);
    EXPECT_EQ(bed.scheduler.processed(), idle_processed);
}

/// Records each foreign frame with the instant it finished decoding.
class TimedSniffer final : public MacCallbacks {
public:
    struct Sniff {
        phy::Frame frame;
        SimTime end;
    };

    explicit TimedSniffer(const sim::Scheduler& scheduler) : scheduler_(scheduler) {}

    std::vector<Sniff> sniffs;

    void mac_rx(const phy::Frame&, std::uint64_t, std::uint32_t) override {}
    void mac_sniffed(const phy::Frame& frame) override
    {
        sniffs.push_back(Sniff{frame, scheduler_.now()});
    }
    void mac_first_tx(const QueueKey&, const net::Packet&) override {}
    void mac_tx_success(const QueueKey&, const net::Packet&) override {}
    void mac_tx_drop(const QueueKey&, const net::Packet&) override {}

private:
    const sim::Scheduler& scheduler_;
};

TEST(Dcf, FirstActAnsweringDataAcksSifsLaterThenContendsNormally)
{
    // b's first act is answering a's data frame: its ACK starts exactly
    // SIFS after the data frame ends. A packet enqueued at b afterwards
    // then waits out DIFS plus b's first backoff draw, as for any MAC.
    MacBed bed;
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    bed.add(100, 100);  // bystander
    TimedSniffer sniffer(bed.scheduler);
    bed.macs[2]->set_callbacks(&sniffer);
    const auto start_of = [&bed](const TimedSniffer::Sniff& sniff) {
        return sniff.end - bed.phy_params.tx_duration(sniff.frame);
    };
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    ASSERT_EQ(a.successes(), 1u);
    ASSERT_EQ(sniffer.sniffs.size(), 2u);
    EXPECT_EQ(sniffer.sniffs[0].frame.type, phy::FrameType::kData);
    EXPECT_EQ(sniffer.sniffs[1].frame.type, phy::FrameType::kAck);
    EXPECT_EQ(start_of(sniffer.sniffs[1]), sniffer.sniffs[0].end + bed.mac_params.sifs_us);
    EXPECT_EQ(b.acks_sent(), 1u);
    EXPECT_EQ(b.in_flight_mpdus(), 0u);

    const SimTime enqueued_at = bed.scheduler.now();
    b.enqueue(QueueKey{0, true}, packet(1));
    bed.scheduler.run_until(2 * kSecond);
    EXPECT_EQ(b.successes(), 1u);
    EXPECT_EQ(b.data_attempts(), 1u);
    EXPECT_EQ(bed.recorders[0]->received.size(), 1u);
    ASSERT_EQ(sniffer.sniffs.size(), 4u);
    ASSERT_EQ(sniffer.sniffs[2].frame.type, phy::FrameType::kData);
    EXPECT_EQ(sniffer.sniffs[2].frame.tx_node, 1);
    // b's first backoff is the first draw of its Rng (MacBed seeds node
    // i with 1000 + i), and the medium stayed idle throughout.
    const int backoff = util::Rng(1001).uniform_int(0, bed.mac_params.cw_min - 1);
    EXPECT_EQ(start_of(sniffer.sniffs[2]),
              enqueued_at + bed.mac_params.difs_us + backoff * bed.mac_params.slot_us);
}

TEST(Dcf, PromiscuousSniffSeesForeignFrames)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    bed.add(100, 100);  // bystander
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(kSecond);
    // The bystander sniffs the data frame (and the ACK addressed to a).
    bool saw_data = false;
    for (const auto& f : bed.recorders[2]->sniffed)
        if (f.type == phy::FrameType::kData) saw_data = true;
    EXPECT_TRUE(saw_data);
}

TEST(Dcf, BackoffDrawsStayWithinWindow)
{
    // With cw = 16 and slot 20 us the access delay of an isolated sender
    // is DIFS + backoff in [0, 15] slots: between 50 and 50 + 300 us.
    MacParams mp;
    mp.cw_min = 16;
    for (int trial = 0; trial < 20; ++trial) {
        MacBed bed(mp, {}, 100 + trial);
        DcfMac& a = bed.add(0);
        bed.add(200);
        a.enqueue(QueueKey{1, true}, packet(0));
        // Find when the data frame hits the air: first busy transition at
        // the receiver.
        SimTime tx_start = -1;
        while (bed.scheduler.pending() > 0 && tx_start < 0) {
            const SimTime before = bed.scheduler.now();
            bed.scheduler.run_until(before + 10);
            if (bed.phys[1]->busy() && tx_start < 0) tx_start = bed.scheduler.now();
        }
        ASSERT_GE(tx_start, 50);
        ASSERT_LE(tx_start, 50 + 15 * 20 + 10);
    }
}

TEST(Dcf, SingleLinkSaturationThroughputMatchesAnalytic)
{
    // Analytic cycle at 1 Mb/s, 1000 B payload, cw 32:
    //   DIFS 50 + E[backoff] 310 + preamble 192 + 8288 (data) + SIFS 10
    //   + preamble 192 + 112 (ack) = 9154 us per packet
    //   => ~874 kb/s. Table 1's best link measures 845 kb/s.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    Saturator sat(bed, a, QueueKey{1, true});
    const SimTime horizon = 20 * kSecond;
    bed.scheduler.run_until(horizon);
    const double kbps = static_cast<double>(bed.recorders[1]->received.size()) * 8000.0 /
                        util::to_seconds(horizon) / 1000.0;
    EXPECT_NEAR(kbps, 874.0, 30.0);
}

TEST(Dcf, LargerCwMinLowersAccessRate)
{
    // Two saturated contenders; one with cw 16, one with cw 256. The
    // aggressive one should win most transmission opportunities — this is
    // the lever EZ-Flow pulls.
    MacParams mp;
    MacBed bed(mp);
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(100);
    bed.add(200);
    a.set_queue_cw_min(QueueKey{2, true}, 16);
    b.set_queue_cw_min(QueueKey{2, true}, 256);
    Saturator sat_a(bed, a, QueueKey{2, true});
    Saturator sat_b(bed, b, QueueKey{2, true});
    bed.scheduler.run_until(30 * kSecond);
    const double a_share = static_cast<double>(a.successes());
    const double b_share = static_cast<double>(b.successes());
    ASSERT_GT(a_share + b_share, 0.0);
    // 1/cw ratio predicts ~16:1; allow a broad band.
    EXPECT_GT(a_share / (a_share + b_share), 0.75);
}

TEST(Dcf, EqualCwSharesFairly)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(100);
    bed.add(200);
    Saturator sat_a(bed, a, QueueKey{2, true});
    Saturator sat_b(bed, b, QueueKey{2, true});
    bed.scheduler.run_until(30 * kSecond);
    const double a_share = static_cast<double>(a.successes());
    const double b_share = static_cast<double>(b.successes());
    ASSERT_GT(a_share + b_share, 0.0);
    const double ratio = a_share / (a_share + b_share);
    EXPECT_GT(ratio, 0.40);
    EXPECT_LT(ratio, 0.60);
}

TEST(Dcf, HiddenTransmitterDegradesVictimLink)
{
    // Chain-style hidden terminal: a(0 m) -> b(250 m), while c(560 m) ->
    // d(760 m). c is hidden from a (560 > 550) and its signal reaches b at
    // 310 m — only (310/250)^4 ~ 2.4x weaker than a's, below the 10x
    // capture threshold, so overlaps corrupt a's frames. c's own receiver
    // d is beyond a's interference range, so c's link stays clean.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(250);  // b
    DcfMac& c = bed.add(560);
    bed.add(760);  // d
    Saturator sat_a(bed, a, QueueKey{1, true});
    Saturator sat_c(bed, c, QueueKey{3, true});
    bed.scheduler.run_until(30 * kSecond);
    const auto a_delivered = bed.recorders[1]->received.size();
    const auto c_delivered = bed.recorders[3]->received.size();
    ASSERT_GT(c_delivered, 1000u);
    // The victim link is heavily degraded but not (necessarily) dead.
    EXPECT_LT(a_delivered, c_delivered / 2);
    EXPECT_GT(a.retransmissions(), a.successes());
}

TEST(Dcf, CaptureProtectsStrongLinkFromFarInterference)
{
    // Same layout but the victim link is short: a(0) -> b(200); the
    // interferer c(700) reaches b at 500 m, (500/200)^4 = 39x weaker than
    // a's signal — captured. a's link survives c's saturation.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);  // b
    DcfMac& c = bed.add(700);
    bed.add(900);  // d
    Saturator sat_a(bed, a, QueueKey{1, true});
    Saturator sat_c(bed, c, QueueKey{3, true});
    bed.scheduler.run_until(20 * kSecond);
    const auto a_delivered = bed.recorders[1]->received.size();
    const auto c_delivered = bed.recorders[3]->received.size();
    ASSERT_GT(c_delivered, 500u);
    EXPECT_GT(a_delivered, c_delivered / 2);
}

TEST(Dcf, LightlyLoadedHiddenTerminalsGetThrough)
{
    // The same hidden pair under light, alternating load delivers fine:
    // collisions require temporal overlap.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(250);
    DcfMac& c = bed.add(560);
    bed.add(760);
    for (int i = 0; i < 50; ++i) {
        bed.scheduler.schedule_at(i * 100 * util::kMillisecond,
                                  [&a, i] { a.enqueue(QueueKey{1, true}, packet(2 * i)); });
        bed.scheduler.schedule_at((i * 100 + 50) * util::kMillisecond,
                                  [&c, i] { c.enqueue(QueueKey{3, true}, packet(2 * i + 1)); });
    }
    bed.scheduler.run_until(10 * kSecond);
    EXPECT_GE(bed.recorders[1]->received.size(), 48u);
    EXPECT_GE(bed.recorders[3]->received.size(), 48u);
}

TEST(Dcf, CarrierSenseAvoidsCollisionsBetweenNeighbours)
{
    // Two mutually-sensing senders to a common receiver should almost
    // never collide (only same-slot draws do). Collisions show up as
    // retransmissions.
    MacBed bed;
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(100);
    bed.add(200);
    Saturator sat_a(bed, a, QueueKey{2, true});
    Saturator sat_b(bed, b, QueueKey{2, true});
    bed.scheduler.run_until(20 * kSecond);
    const auto total = a.successes() + b.successes();
    const auto rtx = a.retransmissions() + b.retransmissions();
    ASSERT_GT(total, 500u);
    // Collision rate bounded: same-slot probability with cw 32 is ~3%,
    // plus alignment effects; allow up to 25%.
    EXPECT_LT(static_cast<double>(rtx) / static_cast<double>(total), 0.25);
}

TEST(Dcf, PerQueueCwMinIsIndependent)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    bed.add(150, 150);
    a.set_queue_cw_min(QueueKey{1, false}, 64);
    a.set_queue_cw_min(QueueKey{2, false}, 1 << 12);
    EXPECT_EQ(a.queue_cw_min(QueueKey{1, false}), 64);
    EXPECT_EQ(a.queue_cw_min(QueueKey{2, false}), 1 << 12);
    EXPECT_THROW(a.queue_cw_min(QueueKey{9, false}), std::invalid_argument);
}

TEST(Dcf, OwnTrafficDoesNotStarveForwardedTraffic)
{
    // The paper's §3.1 requirement: a node that is both source and relay
    // keeps independent queues "in order not to starve forwarded
    // traffic". With both queues saturated toward the same successor,
    // round-robin service must split transmissions near-evenly.
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    Saturator own(bed, a, QueueKey{1, true});
    Saturator forwarded(bed, a, QueueKey{1, false});
    bed.scheduler.run_until(30 * kSecond);
    const MacQueue* own_q = a.queues().find(QueueKey{1, true});
    const MacQueue* fwd_q = a.queues().find(QueueKey{1, false});
    ASSERT_NE(own_q, nullptr);
    ASSERT_NE(fwd_q, nullptr);
    ASSERT_GT(own_q->dequeued() + fwd_q->dequeued(), 1000u);
    const double own_share = static_cast<double>(own_q->dequeued()) /
                             static_cast<double>(own_q->dequeued() + fwd_q->dequeued());
    EXPECT_NEAR(own_share, 0.5, 0.05);
}

TEST(Dcf, RoundRobinServesBothQueues)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    bed.add(150, 150);
    for (int i = 0; i < 50; ++i) {
        a.enqueue(QueueKey{1, false}, packet(2 * i));
        a.enqueue(QueueKey{2, false}, packet(2 * i + 1));
    }
    bed.scheduler.run_until(10 * kSecond);
    EXPECT_GT(bed.recorders[1]->received.size(), 20u);
    EXPECT_GT(bed.recorders[2]->received.size(), 20u);
}

TEST(Dcf, QueueOverflowCountsDrops)
{
    MacBed bed;
    DcfMac& a = bed.add(0);
    bed.add(200);
    int accepted = 0;
    for (int i = 0; i < 200; ++i)
        if (a.enqueue(QueueKey{1, true}, packet(i))) ++accepted;
    // Capacity 50 plus whatever drained in zero simulated time (none).
    EXPECT_EQ(accepted, bed.mac_params.queue_capacity);
    const MacQueue* q = a.queues().find(QueueKey{1, true});
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->dropped_full(), 150u);
}

TEST(Dcf, BidirectionalTrafficOnOneLink)
{
    // Both endpoints send to each other; ACK scheduling and contention
    // interleave without deadlock and both directions make progress.
    MacBed bed;
    DcfMac& a = bed.add(0);
    DcfMac& b = bed.add(200);
    Saturator sat_a(bed, a, QueueKey{1, true});
    Saturator sat_b(bed, b, QueueKey{0, true});
    bed.scheduler.run_until(10 * kSecond);
    EXPECT_GT(bed.recorders[0]->received.size(), 100u);
    EXPECT_GT(bed.recorders[1]->received.size(), 100u);
}

TEST(Dcf, EscalatedCwCapsAtMaxEscalation)
{
    // With a lossy link the retry windows escalate but stay bounded; the
    // packet still eventually drops after retry_limit attempts.
    MacParams mp;
    mp.cw_min = 512;
    mp.cw_max_escalation = 1024;
    MacBed bed(mp);
    bed.channel.set_link_loss(0, 1, 1.0);
    DcfMac& a = bed.add(0);
    bed.add(200);
    a.enqueue(QueueKey{1, true}, packet(0));
    bed.scheduler.run_until(60 * kSecond);
    EXPECT_EQ(a.retry_drops(), 1u);
}

TEST(Dcf, ThroughputScalesInverselyWithPayload)
{
    // Halving the payload should not halve throughput (fixed overheads),
    // sanity-checking the airtime model end to end.
    auto run = [](int bytes) {
        MacBed bed;
        DcfMac& a = bed.add(0);
        bed.add(200);
        Saturator sat(bed, a, QueueKey{1, true}, bytes);
        bed.scheduler.run_until(10 * kSecond);
        return static_cast<double>(bed.recorders[1]->received.size()) * bytes * 8;
    };
    const double full = run(1000);
    const double half = run(500);
    EXPECT_GT(half, full * 0.5);  // better than half
    EXPECT_LT(half, full);        // but strictly worse than full-size
}

}  // namespace
}  // namespace ezflow::mac

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/frame.h"
#include "phy/geometry.h"
#include "phy/phy.h"
#include "phy/propagation.h"
#include "sim/scheduler.h"

namespace ezflow::phy {
namespace {

// ------------------------------------------------------------- geometry

TEST(Geometry, DistanceEuclidean)
{
    EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------- propagation

TEST(TwoRay, ReferenceLawIsInverseFourthClampedAtOneMetre)
{
    EXPECT_EQ(two_ray_power_w(1.0, 2.0), 1.0 / 16.0);
    EXPECT_EQ(two_ray_power_w(2.0, 10.0), 2e-4);
    // Co-located nodes: the clamp keeps the power finite.
    EXPECT_EQ(two_ray_power_w(1.0, 0.5), 1.0);
    EXPECT_EQ(two_ray_power_w(1.0, 0.0), 1.0);
}

TEST(TwoRay, Ns2ThresholdsYieldPaperRanges)
{
    // The 250 m delivery / 550 m carrier-sense ranges the paper quotes are
    // the ns-2 defaults (wireless-phy.cc). Beyond the two-ray crossover
    // 4*pi*h^2/lambda (~86 m here) the received power is Pt*h^4/d^4 (unit
    // gains, equal antenna heights), so the range at which it falls to a
    // threshold Pr is d = (Pt*h^4/Pr)^(1/4).
    constexpr double kTxPowerW = 0.28183815;
    constexpr double kRxThresholdW = 3.652e-10;
    constexpr double kCsThresholdW = 1.559e-11;
    constexpr double kAntennaHeightM = 1.5;
    const double wavelength_m = 3e8 / 914e6;
    const double crossover_m = 4.0 * util::kPi * kAntennaHeightM * kAntennaHeightM / wavelength_m;
    const auto range_m = [&](double threshold_w) {
        const double h2 = kAntennaHeightM * kAntennaHeightM;
        return std::pow(kTxPowerW * h2 * h2 / threshold_w, 0.25);
    };
    EXPECT_NEAR(crossover_m, 86.0, 1.0);
    EXPECT_NEAR(range_m(kRxThresholdW), 250.0, 1.0);
    EXPECT_NEAR(range_m(kCsThresholdW), 550.0, 1.0);
    // Both ranges lie beyond the crossover, where the d^-4 law holds.
    EXPECT_GT(range_m(kRxThresholdW), crossover_m);
    // The Channel's defaults are those ranges.
    EXPECT_EQ(PhyParams{}.tx_range_m, 250.0);
    EXPECT_EQ(PhyParams{}.cs_range_m, 550.0);
}

// ----------------------------------------------------------- PHY params

/// A one-MPDU data frame, as the MAC sends without a block-ack agreement.
Frame data_frame(net::NodeId from, net::NodeId to, int bytes = 1000)
{
    Frame f;
    f.type = FrameType::kData;
    f.tx_node = from;
    f.rx_node = to;
    Mpdu mpdu;
    mpdu.packet.bytes = bytes;
    mpdu.packet.checksum = 0xBEEF;
    f.mpdus.push_back(mpdu);
    return f;
}

TEST(PhyParams, DataFrameAirtime)
{
    PhyParams params;
    // 192 us PLCP + (1000 + 36) * 8 bits at 1 Mb/s.
    EXPECT_EQ(params.tx_duration(data_frame(0, 1)), 192 + 8288);
}

TEST(PhyParams, OnlyAnAmpduPaysTheSubframeDelimiter)
{
    // The same single MPDU under a block-ack agreement travels as a
    // one-subframe A-MPDU: 4 delimiter bytes more on the air.
    PhyParams params;
    Frame frame = data_frame(0, 1);
    frame.ampdu = true;
    EXPECT_EQ(params.tx_duration(frame), 192 + 8288 + 4 * 8);
}

TEST(PhyParams, SingleSpanCoversTheWholeAirtime)
{
    PhyParams params;
    std::vector<SimTime> ends;
    params.span_end_offsets(data_frame(0, 1), ends);
    EXPECT_EQ(ends, std::vector<SimTime>{params.tx_duration(data_frame(0, 1))});
    Frame ack;
    ack.type = FrameType::kAck;
    params.span_end_offsets(ack, ends);
    EXPECT_EQ(ends, std::vector<SimTime>{params.tx_duration(ack)});
}

TEST(PhyParams, AckFrameAirtime)
{
    PhyParams params;
    Frame ack;
    ack.type = FrameType::kAck;
    EXPECT_EQ(params.tx_duration(ack), 192 + 112);
}

TEST(PhyParams, ControlDurationIsTheAirtimeOfEachControlFrame)
{
    PhyParams params;
    using T = FrameType;
    for (const FrameType type : {T::kAck, T::kBlockAck, T::kRts, T::kCts}) {
        Frame frame;
        frame.type = type;
        EXPECT_EQ(params.control_duration(type), params.tx_duration(frame))
            << "frame type " << static_cast<int>(type);
    }
    EXPECT_EQ(params.control_duration(FrameType::kRts), 192 + 160);
    EXPECT_THROW(params.control_duration(FrameType::kData), std::invalid_argument);
}

TEST(PhyParams, AirtimeRoundsUpAtNonDividingBitrates)
{
    // (1000 + 36) * 8 = 8288 bits. At 1 Mb/s that is exactly 8288 us
    // (paper figures unaffected); at 11 Mb/s truncation would undercount
    // the 753.45 us payload time by a partial symbol.
    PhyParams params;
    const Frame frame = data_frame(0, 1);

    params.bitrate_bps = 11'000'000;
    EXPECT_EQ(params.tx_duration(frame), params.plcp_overhead_us + 754);  // ceil(8288/11)
    params.bitrate_bps = 5'500'000;
    EXPECT_EQ(params.tx_duration(frame), params.plcp_overhead_us + 1507);  // ceil(8288/5.5)
    params.bitrate_bps = 2'000'000;
    EXPECT_EQ(params.tx_duration(frame), params.plcp_overhead_us + 4144);  // exact
    params.bitrate_bps = 1'000'000;
    EXPECT_EQ(params.tx_duration(frame), params.plcp_overhead_us + 8288);  // exact

    Frame ack;
    ack.type = FrameType::kAck;
    params.bitrate_bps = 11'000'000;
    EXPECT_EQ(params.tx_duration(ack), params.plcp_overhead_us + 11);  // ceil(112/11)
}

// -------------------------------------------------- channel and NodePhy

/// Records everything the PHY reports, for assertions.
class RecordingListener final : public PhyListener {
public:
    std::vector<bool> busy_transitions;
    std::vector<Frame> decoded;
    std::vector<Frame> tx_done;

    void phy_busy_changed(bool busy) override { busy_transitions.push_back(busy); }
    void phy_frame_decoded(const Frame& frame) override { decoded.push_back(frame); }
    void phy_tx_done(const Frame& frame) override { tx_done.push_back(frame); }
};

struct TestBed {
    sim::Scheduler scheduler;
    PhyParams params;
    Channel channel;
    std::vector<std::unique_ptr<NodePhy>> phys;
    std::vector<std::unique_ptr<RecordingListener>> listeners;

    explicit TestBed(PhyParams p = {}) : params(p), channel(scheduler, util::Rng(7), p) {}

    NodePhy& add(double x, double y = 0.0)
    {
        const auto id = static_cast<net::NodeId>(phys.size());
        phys.push_back(std::make_unique<NodePhy>(id, Position{x, y}, scheduler));
        listeners.push_back(std::make_unique<RecordingListener>());
        channel.attach(*phys.back());
        phys.back()->set_listener(listeners.back().get());
        return *phys.back();
    }

    RecordingListener& listener(std::size_t i) { return *listeners[i]; }
};

TEST(Channel, DeliversWithinRange)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);  // within 250 m
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    ASSERT_EQ(bed.listener(1).decoded.size(), 1u);
    EXPECT_EQ(bed.listener(1).decoded[0].rx_node, 1);
    EXPECT_EQ(bed.listener(0).tx_done.size(), 1u);
}

TEST(Channel, NoDeliveryBeyondDeliveryRange)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(300);  // beyond 250 m but within CS range
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
    // Still sensed: busy toggled on and off.
    ASSERT_EQ(bed.listener(1).busy_transitions.size(), 2u);
    EXPECT_TRUE(bed.listener(1).busy_transitions[0]);
    EXPECT_FALSE(bed.listener(1).busy_transitions[1]);
}

TEST(Channel, NoSensingBeyondCsRange)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(600);  // beyond 550 m
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).busy_transitions.empty());
    EXPECT_TRUE(bed.listener(1).decoded.empty());
}

TEST(Channel, EveryNodeInRangeHearsEverything)
{
    // The broadcast property EZ-Flow relies on: a third party within
    // delivery range decodes frames not addressed to it.
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    bed.add(100, 100);  // bystander within range of the transmitter
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    ASSERT_EQ(bed.listener(2).decoded.size(), 1u);
    EXPECT_EQ(bed.listener(2).decoded[0].rx_node, 1);  // addressed elsewhere
}

TEST(Channel, HiddenTerminalCollisionCorruptsReception)
{
    // a(0) -> b(200); c at 400 is within interference range of b but
    // hidden from a. Overlapping transmissions corrupt b's reception.
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    NodePhy& c = bed.add(400);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.schedule_at(1000, [&] { c.start_tx(data_frame(2, 3)); });
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
    EXPECT_EQ(bed.phys[1]->frames_corrupted(), 1u);
}

TEST(Channel, CollisionWhenSecondSignalArrivesFirstFrameAlreadyLocked)
{
    // Locked reception is corrupted by any later overlapping signal, and
    // the later signal itself is not decodable either.
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);                    // receiver
    NodePhy& c = bed.add(150, 150);  // also within delivery range of b
    a.start_tx(data_frame(0, 1));
    bed.scheduler.schedule_at(500, [&] { c.start_tx(data_frame(2, 1)); });
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
}

// --------------------------------- one reception regime: interval edges
//
// The locked frame's spans are judged over half-open intervals: only an
// interval of positive length during which the capture test fails can
// corrupt. Geometry: sender a(0) -> receiver b(200); an interferer at
// 372 m from b is 12x weaker than a there (captured over alone), two of
// them together are only 6x weaker (corrupting), and one at 200 m from b
// is as strong as a.

constexpr double kWeakInterfererM = 372.0;  // (372/200)^4 ~ 12x weaker

TEST(NodePhy, InterfererArrivingAtTheLockedFramesEndInstantDoesNotCorrupt)
{
    // The interferer's start event is queued before the frame's own end,
    // so at the end instant it arrives while b is still locked: the
    // below-threshold interval opens and closes at the same instant.
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    NodePhy& c = bed.add(400);  // equal power at b
    const SimTime end = bed.params.tx_duration(data_frame(0, 1));
    bed.scheduler.schedule_at(end, [&] { c.start_tx(data_frame(2, 3)); });
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(1).decoded.size(), 1u);
    EXPECT_EQ(bed.phys[1]->frames_corrupted(), 0u);
}

/// Two weak interferers inside a's frame: the second starts `gap_us`
/// after the first one's airtime ends (0 = at the same instant). Returns
/// whether b decoded a's frame.
bool survives_back_to_back_interferers(SimTime gap_us)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    NodePhy& c1 = bed.add(200 + kWeakInterfererM, 0);
    NodePhy& c2 = bed.add(200, kWeakInterfererM);
    const SimTime first_end = 1000 + bed.params.tx_duration(data_frame(2, 4, 100));
    // Both start events are queued up front, so c2's start precedes c1's
    // signal end when they share an instant.
    bed.scheduler.schedule_at(1000, [&] { c1.start_tx(data_frame(2, 4, 100)); });
    bed.scheduler.schedule_at(first_end + gap_us, [&] { c2.start_tx(data_frame(3, 4, 100)); });
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(1).decoded.size() + bed.phys[1]->frames_corrupted(), 1u);
    return bed.listener(1).decoded.size() == 1;
}

TEST(NodePhy, InterfererStartingAsAnotherEndsOverlapsNeither)
{
    // At the shared instant both are briefly on the ledger together, but
    // [start1, t) and [t, end2) do not overlap: neither sum is ever held
    // for a positive time, and each alone is captured over.
    EXPECT_TRUE(survives_back_to_back_interferers(0));
    // One microsecond of genuine overlap is enough to corrupt.
    EXPECT_FALSE(survives_back_to_back_interferers(-1));
}

TEST(NodePhy, MidFrameInterfererCorruptsAControlFrame)
{
    // A control frame is one span: an equal-power interferer arriving
    // half-way through the ACK corrupts it; a weak one is captured over.
    for (const bool strong : {true, false}) {
        TestBed bed;
        NodePhy& a = bed.add(0);
        bed.add(200);
        NodePhy& c = strong ? bed.add(400) : bed.add(200 + kWeakInterfererM);
        Frame ack;
        ack.type = FrameType::kAck;
        ack.tx_node = 0;
        ack.rx_node = 1;
        bed.scheduler.schedule_at(bed.params.tx_duration(ack) / 2,
                                  [&] { c.start_tx(data_frame(2, 3)); });
        a.start_tx(ack);
        bed.scheduler.run();
        EXPECT_EQ(bed.listener(1).decoded.size(), strong ? 0u : 1u) << "strong=" << strong;
        EXPECT_EQ(bed.phys[1]->frames_corrupted(), strong ? 1u : 0u) << "strong=" << strong;
    }
}

TEST(Channel, BackToBackTransmissionsBothDecoded)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    a.start_tx(data_frame(0, 1));
    const SimTime first_ends = bed.params.tx_duration(data_frame(0, 1));
    bed.scheduler.schedule_at(first_ends + 10, [&] { a.start_tx(data_frame(0, 1, 500)); });
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(1).decoded.size(), 2u);
}

TEST(Channel, TransmitterCannotHearWhileTransmitting)
{
    // Half-duplex: b transmits while a's frame is on the air; b decodes
    // nothing (this is the paper's "sniffer constraint").
    TestBed bed;
    NodePhy& a = bed.add(0);
    NodePhy& b = bed.add(200);
    b.start_tx(data_frame(1, 2));  // long frame
    bed.scheduler.schedule_at(100, [&] { a.start_tx(data_frame(0, 1, 100)); });
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
    EXPECT_GE(bed.phys[1]->frames_missed_busy(), 1u);
}

TEST(Channel, PerLinkLossDropsFrames)
{
    TestBed bed;
    bed.channel.set_link_loss(0, 1, 1.0);
    NodePhy& a = bed.add(0);
    bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
}

TEST(Channel, LinkLossIsDirectional)
{
    TestBed bed;
    bed.channel.set_link_loss(0, 1, 1.0);
    NodePhy& a = bed.add(0);
    NodePhy& b = bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
    b.start_tx(data_frame(1, 0));
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(0).decoded.size(), 1u);
}

TEST(Channel, LinkLossValidation)
{
    TestBed bed;
    EXPECT_THROW(bed.channel.set_link_loss(0, 1, -0.1), std::invalid_argument);
    EXPECT_THROW(bed.channel.set_link_loss(0, 1, 1.1), std::invalid_argument);
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(3, 4), 0.0);
    // The bounds themselves are valid, and a second call replaces the first.
    bed.channel.set_link_loss(0, 1, 0.0);
    bed.channel.set_link_loss(0, 1, 1.0);
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(0, 1), 1.0);
    bed.channel.set_link_loss(0, 1, 0.5);
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(0, 1), 0.5);
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(1, 0), 0.0);
}

TEST(Channel, LinkLossRejectsNaN)
{
    // A NaN compares false against both bounds, so a range check written
    // as `p < 0 || p > 1` would store it.
    TestBed bed;
    bed.channel.set_link_loss(0, 1, 0.25);
    EXPECT_THROW(bed.channel.set_link_loss(0, 1, std::nan("")), std::invalid_argument);
    EXPECT_THROW(bed.channel.set_link_loss(2, 3, std::nan("")), std::invalid_argument);
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(0, 1), 0.25);  // the rejected value was not stored
    EXPECT_DOUBLE_EQ(bed.channel.link_loss(2, 3), 0.0);
}

TEST(Channel, RejectsDuplicateNodeIds)
{
    TestBed bed;
    bed.add(0);
    NodePhy dup(0, Position{10, 10}, bed.scheduler);
    EXPECT_THROW(bed.channel.attach(dup), std::invalid_argument);
}

TEST(NodePhy, StartTxWhileTransmittingThrows)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    a.start_tx(data_frame(0, 1));
    EXPECT_THROW(a.start_tx(data_frame(0, 1)), std::logic_error);
}

TEST(Channel, DeafPhyHearsNothingAndCannotTransmit)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    NodePhy& deaf = bed.add(200);  // delivery range
    bed.add(400);                  // sensing range only
    NodePhy& far = bed.add(300, 300);
    bed.channel.set_deaf(deaf);
    EXPECT_TRUE(deaf.deaf());
    EXPECT_FALSE(a.deaf());
    EXPECT_EQ(bed.channel.reachable_count(deaf.id()), 0u);
    // A deaf receiver keeps its entry only inside delivery range.
    EXPECT_EQ(bed.channel.reachable_count(far.id()), 2u);

    a.start_tx(data_frame(0, 1));
    EXPECT_FALSE(deaf.busy());  // the frame is on the air next to it
    EXPECT_EQ(deaf.interference_ledger_w(), 0.0);
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());
    EXPECT_TRUE(bed.listener(1).busy_transitions.empty());
    EXPECT_EQ(deaf.frames_decoded() + deaf.frames_corrupted() + deaf.frames_missed_busy(), 0u);
    EXPECT_FALSE(deaf.last_rx_error());
    EXPECT_EQ(deaf.last_decode_mpdu_errors(), 0u);
    EXPECT_EQ(bed.listener(2).busy_transitions.size(), 2u);

    EXPECT_THROW(deaf.start_tx(data_frame(1, 0)), std::logic_error);
    EXPECT_FALSE(deaf.transmitting());
    NodePhy stranger(9, Position{0, 0}, bed.scheduler);
    EXPECT_THROW(bed.channel.set_deaf(stranger), std::invalid_argument);
}

TEST(Channel, DeafReceiverInDeliveryRangeKeepsItsLossRoll)
{
    // Node 1 is deaf in the first bed and listens in the second; its
    // lossy link from the sender is rolled either way, so the loss verdicts
    // at node 2 (later in reach order) match frame for frame.
    const auto decoded_at_2 = [](bool deafen) {
        TestBed bed;
        NodePhy& a = bed.add(0);
        NodePhy& bystander = bed.add(100);
        bed.add(200);
        bed.channel.set_link_loss(0, 1, 0.5);
        bed.channel.set_link_loss(0, 2, 0.5);
        if (deafen) bed.channel.set_deaf(bystander);
        std::vector<std::uint32_t> seqs;
        for (std::uint32_t i = 0; i < 64; ++i) {
            Frame frame = data_frame(0, 2);
            frame.mac_seq = i;
            a.start_tx(std::move(frame));
            bed.scheduler.run();
        }
        for (const Frame& frame : bed.listener(2).decoded) seqs.push_back(frame.mac_seq);
        return seqs;
    };
    const std::vector<std::uint32_t> listening = decoded_at_2(false);
    EXPECT_GT(listening.size(), 8u);
    EXPECT_LT(listening.size(), 56u);
    EXPECT_EQ(decoded_at_2(true), listening);
}

TEST(NodePhy, BusyDuringOwnTransmission)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    EXPECT_FALSE(a.busy());
    a.start_tx(data_frame(0, 1));
    EXPECT_TRUE(a.busy());
    EXPECT_TRUE(a.transmitting());
    bed.scheduler.run();
    EXPECT_FALSE(a.busy());
}

TEST(NodePhy, NeverSignalledPhyIsIdleAndCountsNothing)
{
    // No signal ever reached `lone` (it is beyond every range), so it has
    // no receive state: idle, no receive error, every counter zero —
    // before and after traffic elsewhere, across a power cycle, and
    // around a transmission of its own.
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    NodePhy& lone = bed.add(5000);
    const auto expect_quiet = [&lone] {
        EXPECT_FALSE(lone.busy());
        EXPECT_FALSE(lone.last_rx_error());
        EXPECT_EQ(lone.last_decode_mpdu_errors(), 0u);
        EXPECT_EQ(lone.interference_ledger_w(), 0.0);
        EXPECT_EQ(lone.frames_decoded(), 0u);
        EXPECT_EQ(lone.frames_corrupted(), 0u);
        EXPECT_EQ(lone.frames_missed_busy(), 0u);
    };
    expect_quiet();
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(1).decoded.size(), 1u);
    expect_quiet();
    lone.power_off();
    expect_quiet();
    lone.power_on();
    expect_quiet();
    lone.start_tx(data_frame(2, 0));
    EXPECT_TRUE(lone.busy());
    bed.scheduler.run();
    EXPECT_EQ(bed.listener(2).busy_transitions, (std::vector<bool>{true, false}));
    expect_quiet();
}

TEST(NodePhy, PowerCycleWipesTheReceptionButKeepsTheCounters)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    NodePhy& b = bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    a.start_tx(data_frame(0, 1));
    EXPECT_TRUE(b.busy());
    EXPECT_GT(b.interference_ledger_w(), 0.0);
    b.power_off();
    EXPECT_FALSE(b.busy());
    EXPECT_EQ(b.interference_ledger_w(), 0.0);
    EXPECT_FALSE(b.last_rx_error());
    b.power_on();
    bed.scheduler.run();  // the wiped frame's end is a tolerated no-op
    EXPECT_EQ(bed.listener(1).decoded.size(), 1u);
    EXPECT_EQ(b.frames_decoded(), 1u);
    EXPECT_FALSE(b.busy());
}

TEST(NodePhy, TxWhileReceivingAbortsReception)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    NodePhy& b = bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.schedule_at(100, [&] { b.start_tx(data_frame(1, 0, 50)); });
    bed.scheduler.run();
    EXPECT_TRUE(bed.listener(1).decoded.empty());  // b aborted its RX
    // And a cannot decode b's frame either: it was transmitting during
    // part of b's frame? No -- a finished at 8480 while b's short frame
    // ended earlier; a was still transmitting: missed.
    EXPECT_TRUE(bed.listener(0).decoded.empty());
}

TEST(NodePhy, ChannelParamsRequiresAttachment)
{
    sim::Scheduler sched;
    NodePhy lone(0, Position{0, 0}, sched);
    EXPECT_THROW(lone.channel_params(), std::logic_error);
}

// ------------------------------------------- single-copy frame pipeline

TEST(Channel, FanoutPerformsZeroPerReceiverFrameCopies)
{
    // A dense cluster: every node is within delivery range of the
    // transmitter, so one transmission fans out to every other PHY. The
    // whole pipeline — start_tx, the pooled FrameRecord, per-receiver
    // signal_start/signal_end and the sender's tx_end — must not copy the
    // Frame at all, regardless of the receiver count (listeners are left
    // unset: delivery callbacks may copy, the transport may not). Every
    // signal end and the tx-end ride one scheduler event.
    const PhyParams params;
    for (const int nodes : {3, 61}) {
        sim::Scheduler scheduler;
        Channel channel(scheduler, util::Rng(7), params);
        std::vector<std::unique_ptr<NodePhy>> phys;
        for (int i = 0; i < nodes; ++i) {
            phys.push_back(std::make_unique<NodePhy>(i, Position{i * 1.0, 0.0}, scheduler));
            channel.attach(*phys.back());
        }
        const std::uint64_t copies_before = Frame::copies();
        phys[0]->start_tx(data_frame(0, 1));
        scheduler.run();
        EXPECT_EQ(Frame::copies() - copies_before, 0u) << "nodes=" << nodes;
        EXPECT_EQ(channel.frame_pool().created(), 1u) << "nodes=" << nodes;
        EXPECT_EQ(scheduler.processed(), 1u) << "nodes=" << nodes;
        EXPECT_EQ(channel.frame_pool().live(), 0u);
    }
}

/// Logs busy -> idle edges and tx-ends into one shared order; the
/// armed instance also schedules a probe for `probe_at` the moment a
/// signal starts at its node, as a MAC rearming a timer would.
class OrderListener final : public PhyListener {
public:
    OrderListener(std::string name, std::vector<std::string>& log, sim::Scheduler& scheduler)
        : name_(std::move(name)), log_(log), scheduler_(scheduler)
    {
    }
    SimTime probe_at = -1;

    void phy_busy_changed(bool busy) override
    {
        if (!busy) log_.push_back(name_ + " idle");
        if (busy && probe_at >= 0)
            scheduler_.schedule_at(probe_at, [this] { log_.push_back("probe"); });
    }
    void phy_frame_decoded(const Frame&) override {}
    void phy_tx_done(const Frame&) override { log_.push_back(name_ + " tx_done"); }

private:
    std::string name_;
    std::vector<std::string>& log_;
    sim::Scheduler& scheduler_;
};

TEST(Channel, BatchedEndsKeepPerEventFifoOrder)
{
    // Receiver c's signal_start schedules a probe for exactly the end
    // instant. Had every receiver its own end event, the probe (scheduled
    // between b's and c's end events) would fire between those two ends;
    // the batching must split there to keep that order.
    TestBed bed;
    std::vector<std::string> log;
    const char* names[] = {"a", "b", "c", "d"};
    std::vector<std::unique_ptr<OrderListener>> listeners;
    for (int i = 0; i < 4; ++i) {
        NodePhy& phy = bed.add(i * 100.0);
        listeners.push_back(std::make_unique<OrderListener>(names[i], log, bed.scheduler));
        phy.set_listener(listeners.back().get());
    }
    const Frame frame = data_frame(0, 1);
    listeners[2]->probe_at = bed.params.tx_duration(frame);
    bed.phys[0]->start_tx(frame);
    bed.scheduler.run();
    const std::vector<std::string> per_event = {"b idle", "probe",  "c idle",
                                                "d idle", "a idle", "a tx_done"};
    EXPECT_EQ(log, per_event);
    // Two batches (b; c, d and the tx-end) plus the probe.
    EXPECT_EQ(bed.scheduler.processed(), 3u);
}

TEST(Channel, BatchSurvivesDetachAndPowerCycleInFlight)
{
    // Between the transmission and its batched ends, one receiver leaves
    // the medium (clearing the reach sets) and another is power-cycled.
    // The batch owns its receiver list, so every other end and the
    // sender's tx-end still fire and the record is released — ASan runs
    // of this test pin the lifetime down.
    TestBed bed;
    NodePhy& a = bed.add(0);
    for (int i = 1; i <= 4; ++i) bed.add(i * 50.0);
    a.start_tx(data_frame(0, 1));
    bed.channel.detach(*bed.phys[1]);
    bed.phys[2]->power_off();
    bed.phys[2]->power_on();
    bed.scheduler.run();
    EXPECT_EQ(bed.phys[1]->interference_ledger_w(), 0.0);  // its end still fired
    EXPECT_TRUE(bed.listener(2).decoded.empty());          // wiped by the power cycle
    EXPECT_EQ(bed.listener(3).decoded.size(), 1u);
    EXPECT_EQ(bed.listener(4).decoded.size(), 1u);
    EXPECT_EQ(bed.listener(0).tx_done.size(), 1u);
    EXPECT_FALSE(a.transmitting());
    EXPECT_EQ(bed.channel.frame_pool().live(), 0u);
}

TEST(Channel, FramePoolRecyclesAcrossTransmissions)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    EXPECT_EQ(bed.channel.frame_pool().created(), 1u);
    EXPECT_EQ(bed.channel.frame_pool().live(), 0u);  // all signal ends fired
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    // The second transmission reuses the recycled record: steady state
    // allocates nothing.
    EXPECT_EQ(bed.channel.frame_pool().created(), 1u);
    EXPECT_EQ(bed.channel.frame_pool().reused(), 1u);
    EXPECT_EQ(bed.listener(1).decoded.size(), 2u);
}

TEST(Channel, FramePoolSharesOneRecordAcrossLossyFanOut)
{
    // A lossy link in the fan-out: still one record per transmission,
    // released when the last signal end fires.
    TestBed bed;
    bed.channel.set_link_loss(0, 1, 0.5);
    NodePhy& a = bed.add(0);
    bed.add(200);
    bed.add(400);
    a.start_tx(data_frame(0, 1));
    EXPECT_EQ(bed.channel.frame_pool().created(), 1u);
    EXPECT_EQ(bed.channel.frame_pool().live(), 1u);  // signal ends pending
    bed.scheduler.run();
    EXPECT_EQ(bed.channel.frame_pool().live(), 0u);
}

TEST(Channel, MidFlightRecordsSurviveChannelDestruction)
{
    // The scheduler can outlive the channel with signal-end events still
    // pending (Network destroys members in reverse order). The pending
    // FrameRefs must keep their orphaned records alive and free them when
    // the events are destroyed — ASan runs of this test pin the lifetime
    // down.
    sim::Scheduler scheduler;
    std::vector<std::unique_ptr<NodePhy>> phys;
    {
        Channel channel(scheduler, util::Rng(7), PhyParams{});
        for (int i = 0; i < 3; ++i) {
            phys.push_back(std::make_unique<NodePhy>(i, Position{i * 200.0, 0.0}, scheduler));
            channel.attach(*phys.back());
        }
        phys[0]->start_tx(data_frame(0, 1));
        EXPECT_EQ(channel.frame_pool().live(), 1u);
        // Channel (and pool) destroyed here with the events mid-flight.
    }
    EXPECT_GT(scheduler.pending(), 0u);
    // Scheduler destruction releases the orphaned record via the last ref.
}

TEST(Channel, TransmissionCountersTrackTypes)
{
    TestBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    a.start_tx(data_frame(0, 1));
    bed.scheduler.run();
    Frame ack;
    ack.type = FrameType::kAck;
    ack.tx_node = 0;
    ack.rx_node = 1;
    a.start_tx(ack);
    bed.scheduler.run();
    EXPECT_EQ(bed.channel.transmissions(), 2u);
    EXPECT_EQ(bed.channel.data_transmissions(), 1u);
}

}  // namespace
}  // namespace ezflow::phy

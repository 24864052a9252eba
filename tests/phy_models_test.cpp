#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "phy/channel.h"
#include "phy/link_table.h"
#include "phy/phy.h"
#include "sim/scheduler.h"

// Channel-model tests: the cumulative-SINR capture rule every frame is
// tested against, the interference ledger behind it, the link table and
// the shared conflict radius.
namespace ezflow::phy {
namespace {

// ------------------------------------------------------------ LinkTable

TEST(LinkTable, InsertFindOverwrite)
{
    LinkTable<int> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(1, 2), nullptr);
    table.insert_or_assign(1, 2, 10);
    table.insert_or_assign(2, 1, 20);  // directed: distinct from (1,2)
    ASSERT_NE(table.find(1, 2), nullptr);
    ASSERT_NE(table.find(2, 1), nullptr);
    EXPECT_EQ(*table.find(1, 2), 10);
    EXPECT_EQ(*table.find(2, 1), 20);
    table.insert_or_assign(1, 2, 30);
    EXPECT_EQ(*table.find(1, 2), 30);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find(3, 4), nullptr);
}

TEST(LinkTable, GrowsPastInitialCapacityAndKeepsEveryEntry)
{
    LinkTable<int> table;
    const int n = 500;  // forces several doublings from the initial 16
    for (int tx = 0; tx < n; ++tx) table.insert_or_assign(tx, tx + 1, tx * 7);
    EXPECT_EQ(table.size(), static_cast<std::size_t>(n));
    for (int tx = 0; tx < n; ++tx) {
        ASSERT_NE(table.find(tx, tx + 1), nullptr) << tx;
        EXPECT_EQ(*table.find(tx, tx + 1), tx * 7);
    }
    int visited = 0;
    table.for_each([&](net::NodeId tx, net::NodeId rx, int value) {
        EXPECT_EQ(rx, tx + 1);
        EXPECT_EQ(value, tx * 7);
        ++visited;
    });
    EXPECT_EQ(visited, n);
}

TEST(LinkTable, RejectsNegativeNodeIds)
{
    LinkTable<int> table;
    EXPECT_THROW(table.insert_or_assign(-1, 2, 0), std::invalid_argument);
}

// --------------------------------------------- cumulative-SINR semantics

class NullListener final : public PhyListener {
public:
    void phy_busy_changed(bool) override {}
    void phy_frame_decoded(const Frame& frame) override { decoded.push_back(frame.mac_seq); }
    void phy_tx_done(const Frame&) override {}
    std::vector<std::uint32_t> decoded;
};

struct SinrBed {
    sim::Scheduler scheduler;
    Channel channel;
    std::vector<std::unique_ptr<NodePhy>> phys;
    std::vector<std::unique_ptr<NullListener>> listeners;

    explicit SinrBed(PhyParams params) : channel(scheduler, util::Rng(7), params) {}

    NodePhy& add(double x)
    {
        const auto id = static_cast<net::NodeId>(phys.size());
        phys.push_back(std::make_unique<NodePhy>(id, Position{x, 0.0}, scheduler));
        listeners.push_back(std::make_unique<NullListener>());
        channel.attach(*phys.back());
        phys.back()->set_listener(listeners.back().get());
        return *phys.back();
    }

    static Frame data(net::NodeId from, net::NodeId to)
    {
        Frame f;
        f.type = FrameType::kData;
        f.tx_node = from;
        f.rx_node = to;
        f.mac_seq = 42;
        Mpdu mpdu;
        mpdu.packet.bytes = 1000;
        f.mpdus.push_back(mpdu);
        return f;
    }
};

// Geometry shared by the mid-frame capture tests: receiver R at 200 m from
// the sender (power 1/200^4 = 6.25e-10 W) and a hidden interferer whose
// power at R is `sir` times weaker.
constexpr double kSenderX = 0.0;
constexpr double kReceiverX = 200.0;
double interferer_x(double sir) { return kReceiverX + 200.0 * std::pow(sir, 0.25); }

/// Whether R decodes the sender's frame when an interferer at SIR `sir`
/// starts `interferer_at_us` into it.
bool decodes_past_interferer(SinrBed& bed, double sir, SimTime interferer_at_us = 1000)
{
    NodePhy& sender = bed.add(kSenderX);
    bed.add(kReceiverX);
    NodePhy& interferer = bed.add(interferer_x(sir));
    sender.start_tx(SinrBed::data(0, 1));
    bed.scheduler.schedule_at(interferer_at_us, [&] { interferer.start_tx(SinrBed::data(2, 1)); });
    bed.scheduler.run();
    EXPECT_EQ(bed.listeners[1]->decoded.size() + bed.phys[1]->frames_corrupted(), 1u);
    return bed.listeners[1]->decoded.size() == 1;
}

TEST(SinrCapture, MidFrameInterfererSurvivesCapture)
{
    // SIR 12 (interferer ~372 m from R): 6.25e-10 >= 10 x 5.2e-11, so the
    // lock survives.
    SinrBed bed{PhyParams{}};
    EXPECT_TRUE(decodes_past_interferer(bed, 12.0));
}

TEST(SinrCapture, DecodeFloorBindsUnderAUnitCaptureThreshold)
{
    // With a unit capture threshold an interferer at SIR 2 would leave
    // the lock alone, but a 1 Mb/s frame still needs its 4 dB (2.51x)
    // decode floor: the floor binds and the frame is corrupted.
    PhyParams params;
    params.capture_threshold = 1.0;
    SinrBed bed{params};
    EXPECT_FALSE(decodes_past_interferer(bed, 2.0));
}

TEST(SinrCapture, OneMegabitThresholdIsTheCaptureThresholdExactly)
{
    // The 1 Mb/s decode floor (2.51x) sits below every capture threshold
    // in use, so those runs keep their exact threshold.
    for (const double threshold : {10.0, 100.0, 1e9}) {
        PhyParams params;
        params.capture_threshold = threshold;
        SinrBed bed{params};
        EXPECT_EQ(bed.channel.capture_threshold(), threshold);
    }
}

TEST(SinrCapture, StrongMidFrameInterfererCorrupts)
{
    // Interferer only 5x weaker than the locked frame: below the 10 dB
    // capture ratio.
    SinrBed bed{PhyParams{}};
    EXPECT_FALSE(decodes_past_interferer(bed, 5.0));
}

TEST(SinrCapture, RateDecodeFloorBindsAtHighRates)
{
    // An interferer at SIR 12.5 (11 dB) starting 500 us in, which is
    // mid-frame at both rates. On a 1 Mb/s channel the frame needs
    // max(10 dB capture, 4 dB floor) = 10x and decodes; on an 11 Mb/s
    // channel it needs max(10 dB, 13 dB) = 19.95x and is corrupted.
    for (const std::int64_t rate : {std::int64_t{1'000'000}, std::int64_t{11'000'000}}) {
        PhyParams params;
        params.bitrate_bps = rate;
        SinrBed bed{params};
        const bool one_megabit = rate == 1'000'000;
        EXPECT_EQ(bed.channel.capture_threshold(), one_megabit ? 10.0 : decode_floor(rate))
            << rate;
        EXPECT_EQ(decodes_past_interferer(bed, 12.5, /*interferer_at_us=*/500), one_megabit)
            << rate;
    }
}

TEST(InterferenceLedger, TracksActivePowerAndSnapsToZero)
{
    SinrBed bed{PhyParams{}};
    NodePhy& sender = bed.add(kSenderX);
    NodePhy& receiver = bed.add(kReceiverX);
    sender.start_tx(SinrBed::data(0, 1));
    EXPECT_GT(receiver.interference_ledger_w(), 0.0);
    bed.scheduler.run();
    EXPECT_EQ(receiver.interference_ledger_w(), 0.0);  // exactly quiet
}

// --------------------------------------------------------- shared radius

TEST(ConflictRadius, IsTheMaxOfAllInteractionRanges)
{
    PhyParams params;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 550.0);
    params.interference_range_m = 800.0;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 800.0);
    params.tx_range_m = 900.0;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 900.0);
}

}  // namespace
}  // namespace ezflow::phy

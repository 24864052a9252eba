// The reachability cull is the channel's only fan-out, so it is checked
// against brute-force geometry instead of a second production path. Every
// attached PHY fires one isolated transmission; each other PHY must then
// carry the two-ray power in its ledger iff it lies within the conflict
// radius, sense the medium busy iff within carrier-sense range, and decode
// the frame iff within delivery range. Seeded random scatters cover
// irregular neighbourhoods; detach/attach cycles cover the cache rebuild.
// Plus unit coverage of the reachability sets and the id-indexed attach.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/channel.h"
#include "phy/phy.h"
#include "phy/propagation.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ezflow::phy {
namespace {

/// Counts decodes, which is all the geometry oracle needs from a listener.
class DecodeCounter final : public PhyListener {
public:
    std::uint64_t decoded = 0;

    void phy_busy_changed(bool) override {}
    void phy_frame_decoded(const Frame&) override { ++decoded; }
    void phy_tx_done(const Frame&) override {}
};

struct CullBed {
    sim::Scheduler scheduler;
    PhyParams params;
    Channel channel;
    std::vector<std::unique_ptr<NodePhy>> phys;
    std::vector<std::unique_ptr<DecodeCounter>> listeners;

    explicit CullBed(PhyParams pp = {}) : params(pp), channel(scheduler, util::Rng(5), pp) {}

    NodePhy& add(double x, double y = 0.0)
    {
        const auto id = static_cast<net::NodeId>(phys.size());
        phys.push_back(std::make_unique<NodePhy>(id, Position{x, y}, scheduler));
        listeners.push_back(std::make_unique<DecodeCounter>());
        phys.back()->set_listener(listeners.back().get());
        channel.attach(*phys.back());
        return *phys.back();
    }

    void scatter(int count, double side_m, std::uint64_t seed)
    {
        util::Rng rng(seed);
        for (int i = 0; i < count; ++i)
            add(rng.uniform_real(0.0, side_m), rng.uniform_real(0.0, side_m));
    }
};

Frame one_mpdu_frame(net::NodeId from)
{
    Frame frame;
    frame.type = FrameType::kData;
    frame.tx_node = from;
    frame.rx_node = from + 1;
    Mpdu mpdu;
    mpdu.packet.bytes = 100;
    frame.mpdus.push_back(mpdu);
    return frame;
}

/// The geometry oracle: one isolated transmission per attached sender,
/// every PHY (attached or not) checked against distance-vs-range.
void expect_fanout_matches_geometry(CullBed& bed)
{
    const PhyParams& p = bed.params;
    for (const auto& sender : bed.phys) {
        if (!bed.channel.is_attached(*sender)) continue;
        std::vector<std::uint64_t> decoded_before;
        for (const auto& listener : bed.listeners) decoded_before.push_back(listener->decoded);

        sender->start_tx(one_mpdu_frame(sender->id()));
        std::vector<bool> delivers(bed.phys.size(), false);
        for (std::size_t i = 0; i < bed.phys.size(); ++i) {
            const NodePhy& rx = *bed.phys[i];
            if (&rx == sender.get()) continue;
            const double d = distance(sender->position(), rx.position());
            const bool reached = bed.channel.is_attached(rx) && d <= p.conflict_radius_m();
            delivers[i] = reached && d <= p.tx_range_m;
            EXPECT_EQ(rx.interference_ledger_w(), reached ? two_ray_power_w(1.0, d) : 0.0)
                << "tx " << sender->id() << " rx " << rx.id() << " at " << d << " m";
            EXPECT_EQ(rx.busy(), reached && d <= p.cs_range_m)
                << "tx " << sender->id() << " rx " << rx.id() << " at " << d << " m";
        }
        bed.scheduler.run();
        for (std::size_t i = 0; i < bed.phys.size(); ++i)
            EXPECT_EQ(bed.listeners[i]->decoded - decoded_before[i], delivers[i] ? 1u : 0u)
                << "tx " << sender->id() << " rx " << bed.phys[i]->id();
    }
}

/// Ranges with a band in each regime: decode (<= 250 m), sense-only
/// (250-550 m) and interference-only (550-700 m).
PhyParams banded_params()
{
    PhyParams params;
    params.interference_range_m = 700.0;
    return params;
}

TEST(ChannelCull, FanOutMatchesGeometryOnRandomScatters)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CullBed bed(banded_params());
        bed.scatter(40, 2000.0, seed);
        expect_fanout_matches_geometry(bed);
    }
    // Default ranges: interference reaches exactly as far as carrier sense.
    CullBed bed;
    bed.scatter(40, 2000.0, 9);
    expect_fanout_matches_geometry(bed);
}

TEST(ChannelCull, FanOutMatchesGeometryAcrossDetachAttach)
{
    CullBed bed(banded_params());
    bed.scatter(30, 1500.0, 21);
    expect_fanout_matches_geometry(bed);  // builds the reach cache

    // Detach every fourth node: the cache is indexed by attach position
    // and lists the dead PHYs, so it must be rebuilt.
    std::vector<NodePhy*> detached;
    for (std::size_t i = 0; i < bed.phys.size(); i += 4) {
        bed.channel.detach(*bed.phys[i]);
        detached.push_back(bed.phys[i].get());
    }
    expect_fanout_matches_geometry(bed);

    // Newcomers at fresh positions, then the dead nodes back at the end of
    // the attach order.
    bed.scatter(5, 1500.0, 22);
    expect_fanout_matches_geometry(bed);
    for (NodePhy* phy : detached) bed.channel.attach(*phy);
    expect_fanout_matches_geometry(bed);
}

TEST(ChannelCull, ReachableSetsMatchGeometry)
{
    // Random scatter: every transmitter's reachability set must contain
    // exactly the nodes within carrier-sense or interference range.
    CullBed bed;
    util::Rng rng(77);
    std::vector<Position> positions;
    for (int i = 0; i < 40; ++i) {
        const Position p{rng.uniform_real(0.0, 2500.0), rng.uniform_real(0.0, 2500.0)};
        positions.push_back(p);
        bed.add(p.x, p.y);
    }
    for (std::size_t tx = 0; tx < positions.size(); ++tx) {
        std::size_t expected = 0;
        for (std::size_t rx = 0; rx < positions.size(); ++rx) {
            if (rx == tx) continue;
            const double d = distance(positions[tx], positions[rx]);
            if (d <= bed.params.cs_range_m || d <= bed.params.interference_range_m) ++expected;
        }
        EXPECT_EQ(bed.channel.reachable_count(static_cast<net::NodeId>(tx)), expected)
            << "tx " << tx;
    }
}

TEST(ChannelCull, LineReachabilityIsLocal)
{
    // 200 m spacing, 550 m carrier sense: two hops either side.
    CullBed bed;
    for (int i = 0; i < 32; ++i) bed.add(i * 200.0);
    EXPECT_EQ(bed.channel.reachable_count(16), 4u);
    EXPECT_EQ(bed.channel.reachable_count(0), 2u);
    EXPECT_EQ(bed.channel.reachable_count(1), 3u);
}

TEST(ChannelCull, Reach40kLatticeMatchesLatticeCounts)
{
    // 200x200 nodes at 200 m under the default 550 m conflict radius: a
    // node reaches the lattice offsets (dx, dy) != 0 with dx^2 + dy^2 <=
    // 2.75^2, i.e. <= 7 — 20 in the interior, fewer where the edge clips.
    constexpr int kSide = 200;
    CullBed bed;
    for (int row = 0; row < kSide; ++row)
        for (int col = 0; col < kSide; ++col) bed.add(col * 200.0, row * 200.0);
    const auto lattice_count = [](int col, int row) {
        std::size_t count = 0;
        for (int dy = -2; dy <= 2; ++dy)
            for (int dx = -2; dx <= 2; ++dx)
                count += (dx != 0 || dy != 0) && dx * dx + dy * dy <= 7 && col + dx >= 0 &&
                         col + dx < kSide && row + dy >= 0 && row + dy < kSide;
        return count;
    };
    for (int row = 0; row < kSide; ++row)
        for (int col = 0; col < kSide; ++col)
            ASSERT_EQ(bed.channel.reachable_count(row * kSide + col), lattice_count(col, row))
                << "node (" << col << ", " << row << ")";
    EXPECT_EQ(lattice_count(kSide / 2, kSide / 2), 20u);  // interior
    EXPECT_EQ(lattice_count(kSide / 2, 0), 12u);          // edge
    EXPECT_EQ(lattice_count(1, 1), 14u);                  // one in from a corner
    EXPECT_EQ(lattice_count(kSide - 1, kSide - 1), 7u);   // corner
}

TEST(ChannelCull, AttachAfterTransmitRebuildsReach)
{
    CullBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    Frame frame;
    frame.type = FrameType::kData;
    frame.tx_node = 0;
    frame.rx_node = 1;
    a.start_tx(frame);
    bed.scheduler.run();
    EXPECT_EQ(bed.phys[1]->frames_decoded(), 1u);
    // A node attached after traffic has flowed must still be reached.
    bed.add(100, 100);
    EXPECT_EQ(bed.channel.reachable_count(0), 2u);
    a.start_tx(frame);
    bed.scheduler.run();
    EXPECT_EQ(bed.phys[2]->frames_decoded(), 1u);  // sniffed the second frame
}

TEST(ChannelCull, DuplicateAttachThrowsViaIdIndex)
{
    CullBed bed;
    bed.add(0);
    NodePhy duplicate(0, Position{50, 50}, bed.scheduler);
    EXPECT_THROW(bed.channel.attach(duplicate), std::invalid_argument);
    EXPECT_THROW(bed.channel.detach(duplicate), std::invalid_argument);  // same id, other phy
    EXPECT_FALSE(bed.channel.is_attached(duplicate));
    EXPECT_THROW(bed.channel.reachable_count(99), std::invalid_argument);
    EXPECT_THROW(bed.channel.reachable_count(-1), std::invalid_argument);
    // The index is a vector over node ids: a negative id has no slot.
    NodePhy negative(-1, Position{50, 50}, bed.scheduler);
    EXPECT_THROW(bed.channel.attach(negative), std::invalid_argument);
    EXPECT_FALSE(bed.channel.is_attached(negative));
}

}  // namespace
}  // namespace ezflow::phy

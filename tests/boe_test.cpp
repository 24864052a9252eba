#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/boe.h"
#include "net/packet.h"
#include "util/rng.h"

namespace ezflow::core {
namespace {

/// Reference model of the successor's FIFO queue, used to check the BOE's
/// estimates exactly: packets "sent" enter the queue, "forwards" pop it.
class SuccessorModel {
public:
    explicit SuccessorModel(BufferOccupancyEstimator& boe) : boe_(boe) {}

    void send(std::uint16_t checksum)
    {
        boe_.on_packet_sent(checksum);
        queue_.push_back(checksum);
    }

    /// Successor forwards its head-of-line packet; returns the BOE sample.
    std::optional<int> forward_and_sniff()
    {
        EXPECT_FALSE(queue_.empty());
        const std::uint16_t checksum = queue_.front();
        queue_.pop_front();
        return boe_.on_packet_overheard(checksum);
    }

    /// Forward without the BOE overhearing it (hidden sniff).
    void forward_silently() { queue_.pop_front(); }

    int true_backlog() const { return static_cast<int>(queue_.size()); }

private:
    BufferOccupancyEstimator& boe_;
    std::deque<std::uint16_t> queue_;
};

std::uint16_t cks(std::uint64_t seq) { return net::packet_checksum(1, seq, 0, 5, 1000); }

TEST(Boe, ExactEstimateUnderLossFreeSniffing)
{
    BufferOccupancyEstimator boe;
    SuccessorModel successor(boe);
    // Send 10, forward 4, checking each estimate against ground truth.
    for (std::uint64_t i = 0; i < 10; ++i) successor.send(cks(i));
    for (int f = 0; f < 4; ++f) {
        const auto estimate = successor.forward_and_sniff();
        ASSERT_TRUE(estimate.has_value());
        EXPECT_EQ(*estimate, successor.true_backlog());
    }
}

TEST(Boe, EstimateZeroWhenSuccessorDrained)
{
    BufferOccupancyEstimator boe;
    SuccessorModel successor(boe);
    successor.send(cks(0));
    const auto estimate = successor.forward_and_sniff();
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, 0);
}

TEST(Boe, InterleavedSendForwardTracksTruth)
{
    BufferOccupancyEstimator boe;
    SuccessorModel successor(boe);
    util::Rng rng(7);
    std::uint64_t next = 0;
    for (int step = 0; step < 2000; ++step) {
        if (successor.true_backlog() == 0 || rng.bernoulli(0.55)) {
            successor.send(cks(next++));
        } else {
            const auto estimate = successor.forward_and_sniff();
            ASSERT_TRUE(estimate.has_value());
            EXPECT_EQ(*estimate, successor.true_backlog());
        }
    }
}

TEST(Boe, RobustToMissedSniffs)
{
    // The paper's key robustness claim (Sec. 3.2): missing overheard
    // packets only delays samples; the next heard packet still yields the
    // exact backlog.
    BufferOccupancyEstimator boe;
    SuccessorModel successor(boe);
    util::Rng rng(11);
    std::uint64_t next = 0;
    int sampled = 0;
    for (int step = 0; step < 3000; ++step) {
        if (successor.true_backlog() == 0 || rng.bernoulli(0.5)) {
            successor.send(cks(next++));
        } else if (rng.bernoulli(0.7)) {
            successor.forward_silently();  // sniff missed
        } else {
            const auto estimate = successor.forward_and_sniff();
            ASSERT_TRUE(estimate.has_value());
            EXPECT_EQ(*estimate, successor.true_backlog());
            ++sampled;
        }
    }
    EXPECT_GT(sampled, 100);
}

TEST(Boe, ResniffOfRetransmittedForwardDoesNotCorruptCursor)
{
    BufferOccupancyEstimator boe;
    SuccessorModel successor(boe);
    for (std::uint64_t i = 0; i < 6; ++i) successor.send(cks(i));
    const std::uint16_t first = cks(0);
    auto est1 = boe.on_packet_overheard(first);
    successor.forward_silently();
    ASSERT_TRUE(est1.has_value());
    EXPECT_EQ(*est1, 5);
    // The successor retransmits the same frame (its ACK was lost); the
    // duplicate sniff must not break subsequent estimates.
    auto est_dup = boe.on_packet_overheard(first);
    ASSERT_TRUE(est_dup.has_value());
    const auto est2 = successor.forward_and_sniff();
    ASSERT_TRUE(est2.has_value());
    EXPECT_EQ(*est2, successor.true_backlog());
}

TEST(Boe, UnknownChecksumIsAMiss)
{
    BufferOccupancyEstimator boe;
    boe.on_packet_sent(cks(0));
    EXPECT_FALSE(boe.on_packet_overheard(0x1234).has_value());
    EXPECT_EQ(boe.misses(), 1u);
    EXPECT_EQ(boe.matches(), 0u);
}

TEST(Boe, EmptyHistoryIsAMiss)
{
    BufferOccupancyEstimator boe;
    EXPECT_FALSE(boe.on_packet_overheard(cks(0)).has_value());
}

TEST(Boe, HistoryEvictionForgetsOldPackets)
{
    BufferOccupancyEstimator boe(100);
    for (std::uint64_t i = 0; i < 250; ++i) boe.on_packet_sent(cks(i));
    // Packet 0 has been evicted from the 100-entry ring.
    EXPECT_FALSE(boe.on_packet_overheard(cks(0)).has_value());
    // Packet 249 (newest) is present: backlog 0.
    const auto estimate = boe.on_packet_overheard(cks(249));
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, 0);
}

TEST(Boe, PaperHistoryDefaultIs1000)
{
    BufferOccupancyEstimator boe;
    for (std::uint64_t i = 0; i < 1000; ++i) boe.on_packet_sent(cks(i));
    // Oldest of the 1000 still matches with distance 999.
    const auto estimate = boe.on_packet_overheard(cks(0));
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, 999);
}

TEST(Boe, ChecksumCollisionCausesBoundedError)
{
    // Two different packets may share a 16-bit checksum; the cursor rule
    // (search forward from the oldest unforwarded entry) picks the FIFO-
    // consistent match, so the estimate error from a collision behind the
    // cursor stays transient rather than systematic.
    BufferOccupancyEstimator boe;
    boe.on_packet_sent(0xAAAA);
    boe.on_packet_sent(0xBBBB);
    boe.on_packet_sent(0xAAAA);  // collision with entry 0
    boe.on_packet_sent(0xCCCC);
    // Successor forwards entry 0 (0xAAAA): cursor at 0 matches entry 0.
    auto est = boe.on_packet_overheard(0xAAAA);
    ASSERT_TRUE(est.has_value());
    EXPECT_EQ(*est, 3);  // entries 1..3 behind it
    // Next forward 0xBBBB.
    est = boe.on_packet_overheard(0xBBBB);
    ASSERT_TRUE(est.has_value());
    EXPECT_EQ(*est, 2);
    // Next forward the second 0xAAAA: cursor is at 2, matches entry 2.
    est = boe.on_packet_overheard(0xAAAA);
    ASSERT_TRUE(est.has_value());
    EXPECT_EQ(*est, 1);
}

TEST(Boe, CountersTrackActivity)
{
    BufferOccupancyEstimator boe;
    boe.on_packet_sent(cks(0));
    boe.on_packet_sent(cks(1));
    boe.on_packet_overheard(cks(0));
    boe.on_packet_overheard(0x7777);
    EXPECT_EQ(boe.sent_recorded(), 2u);
    EXPECT_EQ(boe.matches(), 1u);
    EXPECT_EQ(boe.misses(), 1u);
}

TEST(Boe, RejectsHistoryOutsideFilterRange)
{
    EXPECT_THROW(BufferOccupancyEstimator(0), std::invalid_argument);
    EXPECT_THROW(BufferOccupancyEstimator(BufferOccupancyEstimator::kMaxHistory + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(BufferOccupancyEstimator(1));
    EXPECT_NO_THROW(BufferOccupancyEstimator(BufferOccupancyEstimator::kMaxHistory));
}

TEST(Boe, FullHistoryInOneBucketStillMatches)
{
    // Every checksum in one bucket at the largest history: that bucket's
    // count sits at kMaxHistory without overflowing.
    const std::size_t history = BufferOccupancyEstimator::kMaxHistory;
    BufferOccupancyEstimator boe(history);
    for (std::size_t i = 0; i < history + 100; ++i)
        boe.on_packet_sent(static_cast<std::uint16_t>((i % 16) << 12));
    // The oldest retained entry (send 100) is the first match from the cursor.
    const auto oldest = boe.on_packet_overheard(static_cast<std::uint16_t>((100 % 16) << 12));
    ASSERT_TRUE(oldest.has_value());
    EXPECT_EQ(*oldest, static_cast<int>(history) - 1);
    EXPECT_FALSE(boe.on_packet_overheard(0x0001).has_value());
}

// ------------------------------------------------------------ oracle race

/// The estimator as a plain linear scan over every checksum ever sent:
/// the search order the filtered ring must reproduce exactly.
class ReferenceBoe {
public:
    explicit ReferenceBoe(std::size_t history) : history_(history) {}

    void on_packet_sent(std::uint16_t checksum) { sent_.push_back(checksum); }

    std::optional<int> on_packet_overheard(std::uint16_t checksum)
    {
        const std::uint64_t next = sent_.size();
        const std::uint64_t oldest = next > history_ ? next - history_ : 0;
        const std::uint64_t search_from = std::max(cursor_, oldest);
        for (std::uint64_t s = search_from; s < next; ++s) {
            if (sent_[s] == checksum) {
                cursor_ = s + 1;
                ++matches_;
                return static_cast<int>(next - 1 - s);
            }
        }
        for (std::uint64_t s = search_from; s-- > oldest;) {
            if (sent_[s] == checksum) {
                ++matches_;
                return static_cast<int>(next - 1 - s);
            }
        }
        ++misses_;
        return std::nullopt;
    }

    std::uint64_t sent_recorded() const { return sent_.size(); }
    std::uint64_t matches() const { return matches_; }
    std::uint64_t misses() const { return misses_; }

private:
    std::size_t history_;
    std::vector<std::uint16_t> sent_;
    std::uint64_t cursor_ = 0;
    std::uint64_t matches_ = 0;
    std::uint64_t misses_ = 0;
};

using ChecksumDraw = std::uint16_t (*)(util::Rng&);

/// Drive both estimators with one seeded stream of sends and sniffs and
/// compare every return value and counter. The successor serves FIFO; a
/// sniff is its head-of-line forward, a re-sniff of something already
/// forwarded, an old send that may have been evicted, or a stray checksum.
/// `sniff_each_send` also sniffs every checksum right after it is sent.
void race(std::size_t history, std::uint64_t seed, int steps, ChecksumDraw draw,
          bool sniff_each_send = false)
{
    BufferOccupancyEstimator boe(history);
    ReferenceBoe reference(history);
    util::Rng rng(seed);
    std::deque<std::uint16_t> queued;
    std::vector<std::uint16_t> sent;
    std::vector<std::uint16_t> forwarded;
    const auto sniff = [&](std::uint16_t checksum) {
        const std::optional<int> expected = reference.on_packet_overheard(checksum);
        ASSERT_EQ(boe.on_packet_overheard(checksum), expected)
            << "checksum " << checksum << " after " << sent.size() << " sends";
    };
    for (int step = 0; step < steps; ++step) {
        const int action = rng.uniform_int(0, 9);
        if (queued.empty() || action < 4) {
            const std::uint16_t checksum = draw(rng);
            boe.on_packet_sent(checksum);
            reference.on_packet_sent(checksum);
            queued.push_back(checksum);
            sent.push_back(checksum);
            if (sniff_each_send) sniff(checksum);
        } else if (action < 7) {
            forwarded.push_back(queued.front());
            queued.pop_front();
            if (action < 6) sniff(forwarded.back());  // else: sniff missed
        } else if (action == 7 && !forwarded.empty()) {
            const int back = rng.uniform_int(1, std::min(4, static_cast<int>(forwarded.size())));
            sniff(forwarded[forwarded.size() - static_cast<std::size_t>(back)]);
        } else if (action == 8) {
            const int back = rng.uniform_int(1, static_cast<int>(sent.size()));
            sniff(sent[sent.size() - static_cast<std::size_t>(back)]);
        } else {
            sniff(draw(rng));
        }
        if (::testing::Test::HasFatalFailure()) return;
        ASSERT_EQ(boe.sent_recorded(), reference.sent_recorded());
        ASSERT_EQ(boe.matches(), reference.matches());
        ASSERT_EQ(boe.misses(), reference.misses());
    }
}

std::uint16_t any_checksum(util::Rng& rng)
{
    return static_cast<std::uint16_t>(rng.next_u64());
}

/// Sixteen values: collisions everywhere, on both sides of the cursor.
std::uint16_t few_checksums(util::Rng& rng)
{
    return static_cast<std::uint16_t>(rng.uniform_int(0, 15) * 0x0101);
}

/// Sixteen values that all share filter bucket 0x123.
std::uint16_t one_bucket(util::Rng& rng)
{
    return static_cast<std::uint16_t>((rng.uniform_int(0, 15) << 12) | 0x123);
}

class BoeRace : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoeRace, MatchesReferenceOnRandomChecksums)
{
    const auto [history, seed] = GetParam();
    race(static_cast<std::size_t>(history), static_cast<std::uint64_t>(seed), 6000,
         any_checksum);
}

TEST_P(BoeRace, MatchesReferenceUnderCollisions)
{
    const auto [history, seed] = GetParam();
    race(static_cast<std::size_t>(history), static_cast<std::uint64_t>(seed), 6000,
         few_checksums);
}

TEST_P(BoeRace, MatchesReferenceWithEveryChecksumInOneBucket)
{
    const auto [history, seed] = GetParam();
    race(static_cast<std::size_t>(history), static_cast<std::uint64_t>(seed), 6000, one_bucket);
}

// Histories 1 and 7 wrap the ring every few sends, so evictions keep
// emptying filter buckets that later sends refill.
INSTANTIATE_TEST_SUITE_P(Histories, BoeRace,
                         ::testing::Combine(::testing::Values(1, 7, 1000),
                                            ::testing::Values(1, 2, 3)));

TEST(BoeRace, LongOneBucketStreamOutlastsTheCounterRange)
{
    // More sends into one bucket than a 16-bit counter can count, each
    // sniffed at once: a filter that missed an eviction would wrap to zero
    // after the 65,536th send and reject the checksum just sent.
    race(7, 5, 200000, one_bucket, /*sniff_each_send=*/true);
}

// Property sweep: for random workloads and any history size, a sniffed
// estimate always equals the true backlog when checksums are unique.
class BoeProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoeProperty, EstimateMatchesTruthUnderRandomWorkload)
{
    const auto [history, seed] = GetParam();
    BufferOccupancyEstimator boe(static_cast<std::size_t>(history));
    SuccessorModel successor(boe);
    util::Rng rng(static_cast<std::uint64_t>(seed));
    std::uint64_t next = 0;
    for (int step = 0; step < 1500; ++step) {
        const bool can_forward = successor.true_backlog() > 0;
        // Keep backlog below history so entries are never evicted
        // (eviction behaviour is covered separately).
        const bool must_forward = successor.true_backlog() >= history - 1;
        if (!can_forward || (!must_forward && rng.bernoulli(0.5))) {
            successor.send(static_cast<std::uint16_t>(next++));  // unique ids
        } else if (rng.bernoulli(0.4)) {
            successor.forward_silently();
        } else {
            const auto estimate = successor.forward_and_sniff();
            ASSERT_TRUE(estimate.has_value());
            EXPECT_EQ(*estimate, successor.true_backlog());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoeProperty,
                         ::testing::Combine(::testing::Values(64, 256, 1000),
                                            ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace ezflow::core

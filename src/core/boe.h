#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ezflow::core {

/// Buffer Occupancy Estimator (Section 3.2).
///
/// Passively derives the buffer occupancy of the successor node, without
/// any message passing:
///  * every packet this node sends to the successor has its 16-bit
///    transport checksum stored in a ring of the last `history` (paper:
///    1000) identifiers;
///  * every frame *overheard* from the successor (forwarding a packet to
///    its own next hop) is matched against the ring: because the successor
///    serves its queue FIFO, the number of identifiers between the matched
///    entry and the most recently sent one is exactly the number of our
///    packets still buffered at the successor.
///
/// The estimator is robust to missed sniffs (hidden nodes, channel
/// variability, half-duplex deafness while transmitting): each successful
/// match yields an exact sample, and missing samples only slows reaction.
///
/// A count filter over the ring (remembered checksums per low-12-bit
/// bucket) rejects most misses without scanning; it never rejects a
/// remembered checksum, so the filter changes no estimate.
class BufferOccupancyEstimator {
public:
    /// Largest history the filter's 16-bit bucket counters can hold.
    static constexpr std::size_t kMaxHistory = 65535;

    /// Throws std::invalid_argument unless 1 <= history <= kMaxHistory.
    static void check_history(std::size_t history);

    explicit BufferOccupancyEstimator(std::size_t history = 1000);

    /// Record a packet transmitted to the successor (first on-air attempt;
    /// retransmissions of the same packet must not be recorded again).
    void on_packet_sent(std::uint16_t checksum);

    /// Process an overheard frame forwarded by the successor. Returns the
    /// estimated successor buffer occupancy when the checksum matches a
    /// remembered identifier, std::nullopt otherwise.
    std::optional<int> on_packet_overheard(std::uint16_t checksum);

    std::uint64_t sent_recorded() const { return next_seq_; }
    std::uint64_t matches() const { return matches_; }
    std::uint64_t misses() const { return misses_; }

private:
    static constexpr std::size_t kBuckets = 4096;
    static std::size_t bucket(std::uint16_t checksum) { return checksum & (kBuckets - 1); }

    /// Checksum of sent packet `seq` lives in slot seq % history; `head_`
    /// is the slot the next send writes.
    std::vector<std::uint16_t> ring_;
    std::size_t head_ = 0;
    std::array<std::uint16_t, kBuckets> bucket_count_{};
    /// Sequence number of the next packet sent (= packets sent so far).
    std::uint64_t next_seq_ = 0;
    /// Sequence number of the first entry not yet known to have been
    /// forwarded by the successor: FIFO service means matches advance this
    /// cursor monotonically. Entries behind the cursor are still searched
    /// (retransmissions by the successor re-sniff the same packet), but
    /// newer entries are preferred from the cursor on, so a checksum
    /// collision behind the cursor cannot shadow fresh packets.
    std::uint64_t cursor_ = 0;

    std::uint64_t matches_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace ezflow::core

#include "core/boe.h"

#include <stdexcept>

namespace ezflow::core {

void BufferOccupancyEstimator::check_history(std::size_t history)
{
    if (history == 0 || history > kMaxHistory)
        throw std::invalid_argument("BufferOccupancyEstimator: history must be in 1..65535");
}

BufferOccupancyEstimator::BufferOccupancyEstimator(std::size_t history)
{
    check_history(history);
    ring_.resize(history);
}

void BufferOccupancyEstimator::on_packet_sent(std::uint16_t checksum)
{
    if (next_seq_ >= ring_.size()) --bucket_count_[bucket(ring_[head_])];  // evict the oldest
    ring_[head_] = checksum;
    ++bucket_count_[bucket(checksum)];
    if (++head_ == ring_.size()) head_ = 0;
    ++next_seq_;
}

std::optional<int> BufferOccupancyEstimator::on_packet_overheard(std::uint16_t checksum)
{
    if (bucket_count_[bucket(checksum)] == 0) {
        ++misses_;
        return std::nullopt;
    }
    const std::size_t size = ring_.size();
    const std::uint64_t oldest = next_seq_ > size ? next_seq_ - size : 0;
    const std::uint64_t search_from = cursor_ > oldest ? cursor_ : oldest;
    // Entries search_from..newest, and the slot holding search_from.
    const std::size_t ahead = static_cast<std::size_t>(next_seq_ - search_from);
    const std::size_t from_slot = head_ >= ahead ? head_ - ahead : head_ + size - ahead;

    // FIFO forwarding: the overheard packet should be the oldest entry not
    // yet forwarded, so search forward from the cursor first.
    std::size_t slot = from_slot;
    for (std::size_t k = 0; k < ahead; ++k) {
        if (ring_[slot] == checksum) {
            cursor_ = search_from + k + 1;
            ++matches_;
            return static_cast<int>(ahead - 1 - k);
        }
        if (++slot == size) slot = 0;
    }
    // Fall back to entries behind the cursor: the successor may be
    // retransmitting a frame we already matched (its ACK got lost).
    slot = from_slot;
    const std::size_t behind = static_cast<std::size_t>(search_from - oldest);
    for (std::size_t k = 1; k <= behind; ++k) {
        slot = slot == 0 ? size - 1 : slot - 1;
        if (ring_[slot] == checksum) {
            ++matches_;
            return static_cast<int>(ahead - 1 + k);
        }
    }
    ++misses_;
    return std::nullopt;
}

}  // namespace ezflow::core

#include "mac/block_ack.h"

#include <stdexcept>
#include <utility>

namespace ezflow::mac {

std::uint32_t BlockAckManager::window_start() const
{
    if (window_.empty()) throw std::logic_error("BlockAckManager::window_start: empty window");
    return window_.front().seq;
}

void BlockAckManager::add_mpdu(net::Packet&& packet, std::uint32_t seq)
{
    if (!window_.empty() && seq <= window_.back().seq)
        throw std::logic_error("BlockAckManager::add_mpdu: sequence not ascending");
    if (window_.size() >= 64)
        throw std::logic_error("BlockAckManager::add_mpdu: window exceeds bitmap width");
    SenderEntry entry;
    entry.packet = std::move(packet);
    entry.seq = seq;
    window_.push_back(std::move(entry));
}

const BlockAckManager::Settled& BlockAckManager::on_block_ack(std::uint32_t start,
                                                              std::uint64_t bitmap,
                                                              int retry_limit)
{
    settled_.acked.clear();
    settled_.dropped.clear();
    // Compact the survivors in place: no allocation once the scratch
    // vectors have grown to the window size.
    std::size_t kept = 0;
    for (SenderEntry& entry : window_) {
        const bool acked =
            entry.seq < start ||
            (entry.seq - start < 64 && ((bitmap >> (entry.seq - start)) & 1) != 0);
        if (acked) {
            settled_.acked.push_back(entry);
        } else if (++entry.retry > retry_limit) {
            settled_.dropped.push_back(entry);
        } else {
            window_[kept++] = entry;
        }
    }
    window_.resize(kept);
    return settled_;
}

const BlockAckManager::Settled& BlockAckManager::on_timeout(int retry_limit)
{
    return on_block_ack(/*start=*/0, /*bitmap=*/0, retry_limit);
}

std::size_t BlockAckManager::flush()
{
    const std::size_t count = window_.size();
    window_.clear();
    return count;
}

BlockAckManager::RxVerdict BlockAckManager::receive(const phy::Frame& frame,
                                                    std::uint64_t corrupt_bits)
{
    Scoreboard& sb = scoreboards_[frame.tx_node];
    // BAR-free window advance: the frame's advertised start releases
    // everything below it (the sender either saw it acknowledged or
    // abandoned it at the retry limit — either way it will never be
    // retransmitted, so holding out for it would stall delivery forever).
    if (frame.ba_start_seq > sb.window_start) {
        const std::uint32_t shift = frame.ba_start_seq - sb.window_start;
        sb.received = shift >= 64 ? 0 : sb.received >> shift;
        sb.window_start = frame.ba_start_seq;
    }
    RxVerdict verdict;
    verdict.release_below = sb.window_start;
    for (std::size_t i = 0; i < frame.mpdus.size() && i < 64; ++i) {
        if ((corrupt_bits >> i) & 1) continue;
        const std::uint32_t seq = frame.mpdus[i].seq;
        if (seq < sb.window_start) {
            ++verdict.duplicates;
            continue;
        }
        const std::uint32_t offset = seq - sb.window_start;
        if (offset >= 64)
            throw std::logic_error("BlockAckManager::receive: MPDU beyond the 64-sequence window");
        if ((sb.received >> offset) & 1) {
            ++verdict.duplicates;
            continue;
        }
        sb.received |= 1ull << offset;
        verdict.ok_bits |= (1ull << i);
    }
    return verdict;
}

BlockAckManager::BaResponse BlockAckManager::response_for(net::NodeId tx) const
{
    const auto it = scoreboards_.find(tx);
    if (it == scoreboards_.end())
        throw std::logic_error("BlockAckManager::response_for: unknown originator");
    return BaResponse{it->second.window_start, it->second.received};
}

}  // namespace ezflow::mac

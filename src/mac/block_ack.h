#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.h"
#include "phy/frame.h"

namespace ezflow::mac {

/// Block-ack state of one DcfMac: the sender-side window (the batch of
/// MPDUs in flight toward the current next hop — one MPDU, or an A-MPDU —
/// each retried selectively until acknowledged or past the retry limit)
/// and the receiver-side per-originator scoreboards that filter
/// duplicates and answer an A-MPDU with a compressed block-ack.
///
/// Window advance is BAR-free: every data frame advertises the sender's
/// current window start (`Frame::ba_start_seq`), and the receiver
/// releases its scoreboard — and the node its reorder buffer — below it.
/// An MPDU the sender abandoned at the retry limit therefore never stalls
/// in-order delivery: the next data frame's advertised start flushes past
/// the hole.
class BlockAckManager {
public:
    // --- sender side ---
    struct SenderEntry {
        net::Packet packet{};
        std::uint32_t seq = 0;
        int retry = 0;  ///< failed attempts so far
    };

    /// MPDUs settled by one acknowledgement (or timeout): acknowledged
    /// packets and retry-limit drops, each reported exactly once.
    struct Settled {
        std::vector<SenderEntry> acked;
        std::vector<SenderEntry> dropped;
    };

    bool batch_active() const { return !window_.empty(); }
    std::size_t window_size() const { return window_.size(); }
    /// Oldest unsettled sequence number (the advertised window start).
    /// Entries are kept in ascending-seq order, so this is the front.
    std::uint32_t window_start() const;
    std::vector<SenderEntry>& window() { return window_; }
    const std::vector<SenderEntry>& window() const { return window_; }

    /// Admit one MSDU into the sender window.
    void add_mpdu(net::Packet&& packet, std::uint32_t seq);

    /// Apply a received acknowledgement: sequence `seq` is acknowledged
    /// when `seq < start` (slid past) or bit `seq - start` of `bitmap` is
    /// set (a normal ACK is start = its sequence, bitmap = 1).
    /// Unacknowledged entries gain a retry; those past `retry_limit` are
    /// dropped. The result is scratch storage, valid until the next call.
    const Settled& on_block_ack(std::uint32_t start, std::uint64_t bitmap, int retry_limit);

    /// No acknowledgement arrived: every window entry gains a retry;
    /// those past `retry_limit` are dropped.
    const Settled& on_timeout(int retry_limit);

    /// Teardown: surrender every unsettled entry (node-down flush).
    /// Returns how many there were.
    std::size_t flush();

    // --- receiver side ---
    struct RxVerdict {
        std::uint64_t ok_bits = 0;  ///< MPDU i decoded AND new (deliver it)
        /// Scoreboard window start after applying the frame's advertised
        /// `ba_start_seq`: the node releases reorder-held packets below it.
        std::uint32_t release_below = 0;
        std::uint64_t duplicates = 0;  ///< clean MPDUs suppressed as dups
    };

    /// Score a data frame against the originator's scoreboard.
    /// `corrupt_bits` is the PHY's per-MPDU verdict (bit i = MPDU i
    /// lost); clean MPDUs are deduplicated and recorded. Throws if an
    /// MPDU lies 64 or more sequences past the window start (a sender
    /// window never spans more than the bitmap).
    RxVerdict receive(const phy::Frame& frame, std::uint64_t corrupt_bits);

    /// Compressed block-ack to answer `tx` with: the scoreboard window
    /// start plus the 64-bit map of sequences received at or above it.
    struct BaResponse {
        std::uint32_t start = 0;
        std::uint64_t bitmap = 0;
    };
    BaResponse response_for(net::NodeId tx) const;

    /// Forget every originator scoreboard (revive after a power cycle:
    /// neighbours' sequence spaces moved on while this node was dead).
    void clear_rx_state() { scoreboards_.clear(); }

private:
    struct Scoreboard {
        std::uint32_t window_start = 0;
        std::uint64_t received = 0;  ///< bit j: sequence window_start + j
    };

    std::vector<SenderEntry> window_;  ///< ascending seq
    Settled settled_;                  ///< on_block_ack scratch
    std::map<net::NodeId, Scoreboard> scoreboards_;
};

}  // namespace ezflow::mac

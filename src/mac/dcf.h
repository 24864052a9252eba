#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mac/block_ack.h"
#include "mac/contention.h"
#include "mac/mac_params.h"
#include "mac/mac_queue.h"
#include "phy/phy.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace ezflow::mac {

using util::SimTime;

/// Upper-layer callbacks of the MAC. The forwarding plane and EZ-Flow's
/// BOE both hang off these hooks.
class MacCallbacks {
public:
    virtual ~MacCallbacks() = default;
    /// A data frame addressed to this node was received: bit i of
    /// `ok_bits` marks MPDU i as decoded, new (scoreboard-filtered) and to
    /// be delivered; reorder-held packets with seq below `release_below`
    /// must be released first (BAR-free window advance).
    virtual void mac_rx(const phy::Frame& frame, std::uint64_t ok_bits,
                        std::uint32_t release_below) = 0;
    /// A decoded frame not addressed to this node (promiscuous tap —
    /// the raw-socket/monitor-mode capture EZ-Flow's BOE relies on).
    virtual void mac_sniffed(const phy::Frame& frame) = 0;
    /// The first on-air transmission attempt of a packet (BOE stores the
    /// checksum at this moment: the packet was truly sent at the PHY).
    virtual void mac_first_tx(const QueueKey& key, const net::Packet& packet) = 0;
    /// A data frame was acknowledged by the next hop.
    virtual void mac_tx_success(const QueueKey& key, const net::Packet& packet) = 0;
    /// A data frame was abandoned after the retry limit.
    virtual void mac_tx_drop(const QueueKey& key, const net::Packet& packet) = 0;
};

/// IEEE 802.11 DCF (basic access; RTS/CTS optional) over one NodePhy.
///
/// One transmission pipeline serves every batch size: each access fills
/// a batch of MPDUs from one queue, transmits it as one data frame,
/// settles the acknowledgement per MPDU through the block-ack window, and
/// re-contends for whatever is still unsettled. The block-ack agreement
/// (`ampdu_max_mpdus > 1`) picks how a batch is filled and answered:
///  * without it the batch is the queue's head packet alone, which stays
///    queue backlog until it settles; it is answered by a normal ACK and
///    may be protected by RTS/CTS;
///  * with it up to `ampdu_max_mpdus` packets leave the queue at once and
///    travel as one A-MPDU (a delimiter per MPDU), answered by a
///    compressed block-ack that retransmits only the lost MPDUs.
///
/// The receiver side is shared too: the per-originator block-ack
/// scoreboard drops duplicates of either kind, and the node's reorder
/// buffer releases packets in sequence order.
///
/// Contention rule, matching the paper's description: every transmission
/// draws a fresh backoff uniformly from [0, cw-1]; the counter decrements
/// once per idle slot after a DIFS of idle medium, freezes while the medium
/// is busy, and resumes (same remaining count) after the next idle DIFS.
/// Retransmissions escalate cw binary-exponentially from the queue's CWmin
/// (the parameter EZ-Flow adapts) up to max(cw_max_escalation, CWmin).
///
/// The whole idle-medium wait is batched: instead of a DIFS timer plus a
/// timer per slot, the MAC registers its interframe space and remaining
/// slot count with the channel's shared ContentionCoordinator in one call
/// and is called back once, at the instant the per-slot countdown would
/// have reached zero; a busy medium consumes the elapsed decrements in
/// one batch. Same DCF dynamics (identical Rng draws and transmission
/// instants), O(transmissions) scheduler events — one insert per
/// contention cycle.
///
/// Virtual carrier sense costs no event at a bystander. Setting a NAV
/// reserves its expiry's FIFO place (Scheduler::reserve) at once, but the
/// expiry is scheduled into that place only while the MAC contends: when
/// the NAV is set, or later when the MAC starts contending while the NAV
/// still runs. The expiry acts only in contention, so every expiry that
/// matters fires exactly where one event per NAV would have put it. A NAV
/// extension cancels the superseded expiry.
///
/// A MAC pays only for what it uses. Everything a frame exchange needs —
/// the contention context, the four timers, the SIFS control responses
/// and the block-ack window and scoreboards — lives in one Exchange,
/// allocated the first time the MAC enqueues a packet or is addressed by
/// a data or RTS frame. Every statistic counts something an exchange
/// does, so the counters live there too. A bystander that never sends
/// and is never addressed keeps only its queues and its NAV; building
/// the Exchange schedules nothing and draws nothing.
class DcfMac final : public phy::PhyListener, public BackoffClient {
public:
    /// `params` are the network's one set, shared by every MAC, so a
    /// temporary cannot bind. Timers run on the coordinator's scheduler.
    DcfMac(phy::NodePhy& phy, ContentionCoordinator& coordinator, util::Rng rng,
           const MacParams& params);
    DcfMac(phy::NodePhy& phy, ContentionCoordinator& coordinator, util::Rng rng,
           MacParams&& params) = delete;
    ~DcfMac() override;
    DcfMac(const DcfMac&) = delete;
    DcfMac& operator=(const DcfMac&) = delete;

    void set_callbacks(MacCallbacks* callbacks) { callbacks_ = callbacks; }

    /// Enqueue a packet toward `key.next_hop`. Returns false when the
    /// interface queue was full and the packet was dropped.
    bool enqueue(const QueueKey& key, net::Packet packet);

    /// Per-queue CWmin control (EZ-Flow's single knob). Creates the queue
    /// if it does not exist yet.
    void set_queue_cw_min(const QueueKey& key, int cw);
    int queue_cw_min(const QueueKey& key) const;

    // --- fault injection ---
    /// Graceful teardown (node death): cancel the coordinator
    /// registration, every timer and the NAV expiry, so nothing stays
    /// scheduled against this MAC; abandon the contention context and any
    /// pending SIFS control responses, and flush every queue into the
    /// `dropped_node_down` bucket. Idempotent.
    void quiesce();
    /// Undo quiesce after the PHY is powered and reattached: clear the
    /// block-ack scoreboards (neighbours' sequence spaces moved on while
    /// this node was dead) and resume serving whatever has been enqueued
    /// since.
    void revive();
    bool is_down() const { return down_; }

    MacQueueSet& queues() { return queues_; }
    const MacQueueSet& queues() const { return queues_; }
    const MacParams& params() const { return params_; }

    // --- PhyListener ---
    void phy_busy_changed(bool busy) override;
    void phy_frame_decoded(const phy::Frame& frame) override;
    void phy_tx_done(const phy::Frame& frame) override;

    // --- BackoffClient ---
    void backoff_expired() override;

    // --- statistics --- (counted inside the exchange: zero without one)
    std::uint64_t data_attempts() const { return ex_ ? ex_->data_attempts : 0; }
    std::uint64_t retransmissions() const { return ex_ ? ex_->retransmissions : 0; }
    std::uint64_t retry_drops() const { return ex_ ? ex_->retry_drops : 0; }
    std::uint64_t acks_sent() const { return ex_ ? ex_->acks_sent : 0; }
    std::uint64_t successes() const { return ex_ ? ex_->successes : 0; }
    /// Duplicate MPDUs suppressed by the block-ack scoreboard. Each one
    /// marks a packet the sender may have retry-dropped (or will ACK
    /// later) after it already progressed — the exact slack the
    /// end-to-end drop audit must allow for cloned outcomes.
    std::uint64_t dup_rx_suppressed() const { return ex_ ? ex_->dup_rx_suppressed : 0; }

    /// Virtual carrier sense deadline (NAV). Exposed for tests.
    SimTime nav_until() const { return nav_until_; }

    /// MPDUs of the batch in flight (0 when idle). Their receiver may
    /// already have progressed any of them — the in-flight slack the drop
    /// audit allows when a run is frozen mid-dialogue.
    std::uint64_t in_flight_mpdus() const { return ex_ ? ex_->ba.window_size() : 0; }

    /// MPDUs whose dialogue a node-down quiesce cut short. The receiver
    /// may already have decoded each before the teardown flushed it —
    /// each abort is therefore one more potential cloned outcome the drop
    /// audit must allow.
    std::uint64_t teardown_aborts() const { return ex_ ? ex_->teardown_aborts : 0; }

    /// In-flight MPDUs already dequeued from their interface queue: an
    /// A-MPDU batch leaves its queue at fill, while a lone MPDU stays
    /// queue backlog until it settles (0 then). Counts as MAC-held
    /// backlog in the drop audit's conservation laws.
    std::uint64_t ampdu_pending() const
    {
        return ex_ && ex_->batch_ampdu ? ex_->ba.window_size() : 0;
    }
    /// Dequeued A-MPDU MPDUs surrendered by a node-down quiesce (the
    /// batch analogue of a queue's dropped_node_down bucket: these packets
    /// were dequeued but never settled on the air).
    std::uint64_t ampdu_node_down_drops() const { return ex_ ? ex_->ampdu_node_down_drops : 0; }
    /// Compressed block-acks transmitted by this MAC.
    std::uint64_t block_acks_sent() const { return ex_ ? ex_->block_acks_sent : 0; }

private:
    enum class State {
        kIdle,
        kWaitMediumIdle,
        /// Registered with the ContentionCoordinator for the fused
        /// DIFS + backoff countdown (one registration covers both).
        kContending,
        kTxRts,
        kWaitCts,
        kTxData,
        kWaitAck,
    };

    /// Fill a batch from the next round-robin queue and draw a fresh
    /// backoff from its (possibly escalated) contention window.
    void start_new_contention();
    /// Enter the access procedure keeping the current backoff counter.
    void resume_access();
    /// Register the fused DIFS + backoff countdown with the coordinator.
    void start_difs();
    /// Suspend the access procedure: batch-consume the decrements (DIFS-
    /// end one included) that elapsed since registration.
    void freeze_contention();
    /// Physical or virtual (NAV) carrier indicates a busy medium.
    bool medium_busy() const;
    /// Extend the NAV to cover a sniffed data frame's ACK (block-ack for
    /// an A-MPDU) exchange.
    void set_nav_for_ack(bool ampdu);
    /// Extend the NAV to an absolute deadline (RTS/CTS Duration fields).
    void set_nav_until(SimTime until);
    /// Schedule the NAV expiry into the place its NAV reserved.
    void schedule_nav_expiry();
    void on_nav_expired();
    /// Start the frame exchange for the batch: either the data frame
    /// directly (basic access) or the RTS when the handshake applies.
    void start_exchange();
    void transmit_rts();
    /// Transmit the data frame carrying every unsettled window entry
    /// (selective retransmit: settled MPDUs are already gone).
    void transmit_batch();
    /// The data frame for the current window.
    phy::Frame data_frame() const;
    void on_ack_timeout();
    void on_cts_timeout();
    /// Apply an acknowledgement verdict (or its timeout analogue) to the
    /// sender window: report acked/dropped MPDUs upward, then either
    /// re-contend for the remainder or finish the batch.
    void settle(const BlockAckManager::Settled& settled);
    /// CTS received: transmit the data frame SIFS later (timer callback).
    void on_cts_data_follow_up();
    int effective_cw() const;
    void maybe_start_work();
    void schedule_control_if_needed();
    void send_pending_control();

    // SIFS-spaced control responses (ACK / CTS / block-ack), out-of-band
    // wrt contention.
    struct PendingControl {
        phy::FrameType type;
        net::NodeId to;
        std::uint32_t seq;
        SimTime duration_us;          ///< NAV to advertise (CTS)
        std::uint32_t ba_start = 0;   ///< kBlockAck: scoreboard window start
        std::uint64_t ba_bitmap = 0;  ///< kBlockAck: compressed bitmap
    };

    /// The frame-exchange state, allocated on first use (see the class
    /// comment). Every state but kIdle implies it exists.
    struct Exchange {
        explicit Exchange(DcfMac& mac);

        // Current contention context (valid when in_contention).
        bool in_contention = false;
        MacQueue* current_queue = nullptr;
        int retries = 0;
        int backoff_remaining = 0;

        sim::Timer ack_timer;
        sim::Timer cts_timer;
        /// One re-armed timer per MAC for every SIFS/slot control trigger
        /// (and one for the CTS -> data follow-up) instead of a fresh
        /// scheduler insert per dialogue. Re-arming replaces the pending
        /// expiry at the same call sites and instants a fresh insert would
        /// have used, so event placement — and every golden — is unchanged;
        /// quiesce simply cancels them (no generation counter needed: a
        /// cancelled timer cannot fire after a teardown or revive).
        sim::Timer ctrl_timer;
        sim::Timer cts_data_timer;

        std::vector<PendingControl> pending_ctrl;  ///< rarely more than one entry
        bool ack_tx_scheduled = false;             ///< SIFS timer armed or control frame on air

        // Batch state: the sender window (non-empty exactly while serving)
        // and the receiver scoreboards.
        BlockAckManager ba;
        /// The batch in flight was filled under the block-ack agreement: its
        /// MPDUs left the queue at fill and travel as an A-MPDU. Stamped on
        /// its data frames as Frame::ampdu.
        bool batch_ampdu = false;
        std::vector<net::Packet> batch_fill;  ///< pop_batch scratch

        std::uint32_t next_seq = 1;

        std::uint64_t data_attempts = 0;
        std::uint64_t retransmissions = 0;
        std::uint64_t retry_drops = 0;
        std::uint64_t acks_sent = 0;
        std::uint64_t successes = 0;
        std::uint64_t dup_rx_suppressed = 0;
        std::uint64_t teardown_aborts = 0;
        std::uint64_t ampdu_node_down_drops = 0;
        std::uint64_t block_acks_sent = 0;
    };

    /// The exchange, built on first use.
    Exchange& exchange();
    sim::Scheduler& scheduler() const { return coordinator_.scheduler(); }

    phy::NodePhy& phy_;
    ContentionCoordinator& coordinator_;
    util::Rng rng_;
    const MacParams& params_;  ///< the network's, shared by every MAC
    MacCallbacks* callbacks_ = nullptr;

    MacQueueSet queues_;
    State state_ = State::kIdle;
    bool down_ = false;  ///< quiesced by fault injection

    std::unique_ptr<Exchange> ex_;  ///< null until first use

    SimTime nav_until_ = 0;  ///< virtual carrier sense (Duration field)
    /// The NAV expiry's reserved FIFO place, and its event while scheduled.
    sim::Scheduler::Reservation nav_place_;
    sim::EventId nav_event_{};
};

// Every node embeds a MAC, so what all MACs share lives once per network.
static_assert(sizeof(DcfMac) <= 152, "DcfMac must stay within 152 bytes");

}  // namespace ezflow::mac

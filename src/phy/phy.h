#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/frame.h"
#include "phy/geometry.h"
#include "sim/scheduler.h"

namespace ezflow::phy {

class Channel;

/// Everything the channel tells a receiver about an arriving signal: the
/// geometry/range facts, the received power, and the channel's verdicts
/// (per-link loss roll, the SINR threshold this frame must clear). One
/// struct instead of a positional boolean soup.
struct RxEvent {
    std::uint64_t signal_id = 0;
    const Frame* frame = nullptr;
    double power_w = 0.0;  ///< received power at this node (two-ray)
    /// Linear SINR this frame needs to lock and survive
    /// (`Channel::capture_threshold`: the capture threshold or the PHY
    /// bitrate's decode floor, whichever is higher).
    double capture_threshold = 10.0;
    bool in_delivery = false;  ///< within tx_range: decode candidate
    bool sensed = false;       ///< within cs_range: counts for energy detection
    /// Bit i set: the per-link loss corrupted reception span i
    /// (Frame::span_count — one roll per span).
    std::uint64_t span_error_bits = 0;
    /// Every span was lost: the frame cannot be locked onto.
    bool error = false;

    bool decodable() const { return in_delivery && !error; }
};

/// Callbacks a MAC implements to drive and observe its PHY.
class PhyListener {
public:
    virtual ~PhyListener() = default;
    /// Medium busy/idle transitions as seen by carrier sense (other nodes'
    /// energy or own transmission).
    virtual void phy_busy_changed(bool busy) = 0;
    /// A frame was decoded at this node — addressed to it or not (the MAC
    /// performs address filtering; promiscuous listeners get the rest).
    virtual void phy_frame_decoded(const Frame& frame) = 0;
    /// Own transmission finished.
    virtual void phy_tx_done(const Frame& frame) = 0;
};

/// Per-node radio. Models a half-duplex 802.11 interface:
///  * carrier sense counts overlapping signals within cs_range;
///  * the node locks onto the first decodable signal while idle;
///  * overlapping signals within interference range accumulate in the
///    interference ledger; the locked frame's power must clear
///    `capture_threshold x interference` (cumulative SINR — the threshold
///    arrives in the RxEvent);
///  * a transmitting node hears nothing (half duplex) — this is what made
///    the authors use a second radio as sniffer on the testbed.
///
/// One reception regime serves every frame. The locked frame is a row of
/// spans (Frame::span_count: one per MPDU of a data frame, one for a
/// control frame), and the PHY records each interval during which the
/// locked power fails the capture test. Interference changes only at
/// signal edges, so the interval endpoints are observed exactly. Every
/// span such an interval overlaps is lost; the frame is corrupted when
/// all its spans are, and delivered otherwise with the lost MPDUs named.
/// Intervals are half-open, [start, end): a signal that starts at the
/// instant a locked frame ends does not overlap it, and of two signals
/// where one ends at the instant the other starts, neither sees the
/// other — an interval of zero length corrupts nothing.
///
/// A PHY pays only for what it uses. The receive path's state — the
/// active-signal ledger, the reception lock and the frame counters —
/// lives in one Receiver, built by the first signal that reaches the
/// node. Until then the PHY is idle, has no receive error and counts
/// nothing, so a deaf bystander keeps only its identity and flags.
class NodePhy {
public:
    NodePhy(net::NodeId id, Position position, sim::Scheduler& scheduler);
    NodePhy(const NodePhy&) = delete;
    NodePhy& operator=(const NodePhy&) = delete;

    void set_channel(Channel* channel) { channel_ = channel; }
    void set_listener(PhyListener* listener) { listener_ = listener; }

    /// Deaf for good: the channel delivers no signal here and start_tx
    /// throws. Channel-facing — call Channel::set_deaf, which also drops
    /// the PHY from the channel's reach sets. A deaf PHY's `frames_*`
    /// counters stay zero.
    void set_deaf() { deaf_ = true; }
    bool deaf() const { return deaf_; }

    net::NodeId id() const { return id_; }
    const Position& position() const { return position_; }

    /// PHY parameters of the attached channel (throws when detached).
    const PhyParams& channel_params() const;

    /// Medium busy for carrier sense: own TX or any sensed energy.
    bool busy() const { return transmitting_ || (rx_ && rx_->sensed_active > 0); }
    bool transmitting() const { return transmitting_; }

    /// Start transmitting `frame` (taken by value and moved into the
    /// channel's shared per-transmission record — pass an rvalue to keep
    /// the pipeline single-copy). Throws if a transmission is in
    /// progress or the PHY is deaf. Aborts (corrupts) any reception in
    /// progress: half-duplex.
    void start_tx(Frame frame);

    // --- channel-facing interface ---
    /// A signal reaching this node started; `rx` carries the power, range
    /// facts and channel verdicts (see RxEvent). The node locks onto the
    /// first decodable arrival while idle and applies the capture test —
    /// locked power vs threshold x interference — at lock and at every
    /// later edge, so a mid-frame interferer corrupts the spans it
    /// overlaps while the reception no longer clears its SINR.
    void signal_start(const RxEvent& rx);
    /// The same signal ended.
    void signal_end(std::uint64_t signal_id, const Frame& frame);
    /// Own transmission ended (scheduled by the channel).
    void tx_end(const Frame& frame);

    // --- power cycling (fault injection) ---
    /// Kill the radio: wipe every live reception, the interference
    /// ledger, carrier-sense state and any transmission in progress —
    /// silently, without listener callbacks (the MAC is quiesced first).
    /// Signal-end / tx-end events already scheduled against this PHY
    /// become tolerated no-ops instead of logic errors, because the
    /// frames they refer to were wiped here, not lost by a bug.
    void power_off();
    /// Bring the radio back (typically right after Channel::attach).
    void power_on();
    bool powered() const { return powered_; }

    /// Total power currently on the air at this node — the interference
    /// ledger. Maintained incrementally (O(1) per signal edge) and snapped
    /// to exactly 0 whenever the ledger empties, so it cannot drift.
    double interference_ledger_w() const { return rx_ ? rx_->ledger_w : 0.0; }

    /// Whether the most recent sensed signal ended without a correct
    /// decode at this node (drives the MAC's EIFS rule).
    bool last_rx_error() const { return rx_ && rx_->last_rx_error; }

    /// Per-MPDU corruption verdict of the most recently decoded frame
    /// (link-loss bits combined with the per-span interference
    /// intervals; bit i = MPDU i lost). Valid during the
    /// phy_frame_decoded callback.
    std::uint64_t last_decode_mpdu_errors() const { return rx_ ? rx_->last_decode_mpdu_errors : 0; }

    // --- statistics --- (zero at a deaf PHY; no result JSON reads them)
    std::uint64_t frames_decoded() const { return rx_ ? rx_->frames_decoded : 0; }
    std::uint64_t frames_corrupted() const { return rx_ ? rx_->frames_corrupted : 0; }
    std::uint64_t frames_missed_busy() const { return rx_ ? rx_->frames_missed_busy : 0; }

private:
    struct ActiveSignal {
        std::uint64_t id;
        double power_w;
        bool sensed;
    };

    /// Everything the receive path keeps: the active-signal ledger, the
    /// reception lock and the statistics. Built by the first signal_start,
    /// so a deaf PHY, which is never signalled, never builds one.
    struct Receiver {
        std::vector<ActiveSignal> active;  ///< overlapping signals at this node
        int sensed_active = 0;             ///< sensed members of active (O(1) carrier sense)
        double ledger_w = 0.0;             ///< incremental total of active signal power

        bool rx_active = false;
        std::uint64_t rx_signal_id = 0;
        double rx_power_w = 0.0;
        double rx_threshold = 0.0;  ///< linear SINR the locked frame must keep clearing
        /// The locked frame. Its pooled record outlives the lock: the
        /// pending signal-end event that completes the reception holds a
        /// reference.
        const Frame* rx_frame = nullptr;
        SimTime rx_started_at = 0;
        SimTime rx_bad_since = -1;         ///< start of the open below-threshold interval
        std::uint64_t rx_span_errors = 0;  ///< link-loss + interference bits
        std::vector<SimTime> span_ends;    ///< scratch: span end offsets from lock
        std::uint64_t last_decode_mpdu_errors = 0;
        bool last_rx_error = false;

        std::uint64_t frames_decoded = 0;
        std::uint64_t frames_corrupted = 0;
        std::uint64_t frames_missed_busy = 0;

        /// Sum of active signal powers excluding `except_id`.
        double interference_sum(std::uint64_t except_id) const;
        /// Instantaneous capture test of the locked frame against the
        /// current interference sum (true = below threshold,
        /// corrupting). The sum is recomputed from the ledger entries
        /// rather than taken from the incremental total: capture decisions
        /// must be bit-exact.
        bool rx_below_threshold() const
        {
            return rx_power_w < rx_threshold * interference_sum(rx_signal_id);
        }
    };

    /// The receiver block, built on first use.
    Receiver& receiver();
    void update_busy();
    /// Close the open below-threshold interval at now and mark every span
    /// of the locked frame it overlaps as lost.
    void close_bad_interval(Receiver& r);

    net::NodeId id_;
    Position position_;
    sim::Scheduler& scheduler_;
    Channel* channel_ = nullptr;
    PhyListener* listener_ = nullptr;

    bool transmitting_ = false;
    bool last_busy_ = false;
    bool powered_ = true;
    bool deaf_ = false;
    /// Set once the PHY has ever been power-cycled: from then on, stale
    /// signal-end/tx-end events referring to wiped state are silently
    /// ignored rather than treated as scheduler-integrity violations.
    bool power_cycled_ = false;

    std::unique_ptr<Receiver> rx_;  ///< null until the first signal
};

}  // namespace ezflow::phy

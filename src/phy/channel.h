#pragma once

#include <cstdint>
#include <vector>

#include "phy/frame.h"
#include "phy/frame_record.h"
#include "phy/link_table.h"
#include "phy/phy.h"
#include "phy/propagation.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ezflow::phy {

/// The shared wireless medium. Dispatches every transmission to the nodes
/// within carrier-sense or interference range, decides decodability per
/// receiver (delivery range + per-link loss roll) and schedules the
/// transmission's end: normally one event that runs every receiver's
/// signal end, in reach order, and then the sender's tx-end. The channel
/// never filters by MAC address — everyone in range hears everything,
/// which is exactly the property EZ-Flow's BOE exploits.
///
/// Capture has one rule: a frame must clear, against the interference
/// sum, the larger of `PhyParams::capture_threshold` and the decode floor
/// of `PhyParams::bitrate_bps` (`decode_floor`), computed once per
/// channel. Received power is two-ray 1/d^4 (`two_ray_power_w`).
/// Frame loss per directed link is a fixed probability (`set_link_loss`).
///
/// Node positions are fixed for the lifetime of a run (NodePhy has no
/// position setter), so the per-transmitter reachability set — which
/// receivers can sense or be interfered by it, with their precomputed
/// powers — is static. Transmissions iterate only that neighbour list, in
/// attach order, rolling the per-link loss for the receivers within
/// delivery range (no rolls while no link has a loss set), so
/// per-transmission cost is O(reachable neighbours), not O(nodes). The
/// sets come from a GridIndex over the attach positions at the conflict
/// radius, so building them all is O(nodes). Every attach, detach and
/// deafening clears the sets; the next transmission rebuilds them, index
/// included.
///
/// A deaf PHY (`set_deaf`) hears nothing: it has an empty set of its own
/// (it may not transmit), it is left out of every set beyond delivery
/// range, and inside delivery range it keeps its entry only so that its
/// link-loss roll still draws from the channel's Rng — the stream, and so
/// every listening receiver's outcome, is the one an all-listening run
/// sees. Its `frames_*` counters stay zero.
class Channel {
public:
    Channel(sim::Scheduler& scheduler, util::Rng rng, PhyParams params);
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Register a node's PHY (id-indexed duplicate check, O(1)). The PHY
    /// must outlive the channel and must not move afterwards; reachability
    /// sets are rebuilt lazily after every attach.
    void attach(NodePhy& phy);

    /// Remove a PHY from the medium (node death). The reachability cache
    /// is invalidated symmetrically with attach — a same-size detach +
    /// attach cycle can never serve stale sets — and end events already
    /// in flight keep their pooled records (frame and receiver list), so
    /// they drain without touching the channel. Throws if not attached.
    void detach(NodePhy& phy);

    /// Whether this PHY is currently attached to the medium.
    bool is_attached(const NodePhy& phy) const;

    /// Stop delivering signals to this attached PHY for good, and forbid
    /// it to transmit (NodePhy::start_tx throws). Only for a node whose
    /// reception cannot change any outcome: one that never transmits and
    /// whose listener acts on nothing it hears. Clears the reach sets.
    /// Throws if the PHY is not attached.
    void set_deaf(NodePhy& phy);

    /// Frame loss probability for the directed link tx -> rx, replacing
    /// any previous one: every span of a frame on the link is lost
    /// independently with this probability. Models link quality
    /// (distance, obstacles); used to calibrate the heterogeneous testbed
    /// capacities of Table 1. Throws outside [0, 1], NaN included.
    void set_link_loss(net::NodeId tx, net::NodeId rx, double loss_probability);
    /// The link's loss probability (0 if none was set).
    double link_loss(net::NodeId tx, net::NodeId rx) const;

    /// Broadcast a frame from `sender`. Called by NodePhy::start_tx.
    /// Takes the frame by value: it is moved into a pooled FrameRecord
    /// that also lists the receivers, shared by the transmission's end
    /// events (single-copy fan-out). Those fire in the same-instant FIFO
    /// order one event per receiver plus one for the tx-end would have.
    void transmit(NodePhy& sender, Frame frame);

    /// Size of `tx`'s reachability set (listening receivers within
    /// carrier-sense or interference range, plus deaf ones within
    /// delivery range; 0 for a deaf `tx`). Exposed for tests and
    /// benchmarks.
    std::size_t reachable_count(net::NodeId tx);

    /// Linear SINR every frame must clear at its receivers: the larger of
    /// the capture threshold and the decode floor of the PHY bitrate.
    double capture_threshold() const { return capture_threshold_; }

    const PhyParams& params() const { return params_; }

    std::uint64_t transmissions() const { return transmissions_; }
    std::uint64_t data_transmissions() const { return data_transmissions_; }

    /// The per-transmission FrameRecord pool (stats for tests/benches).
    const FramePool& frame_pool() const { return frame_pool_; }

private:
    /// Attach position of node `id`, or -1 when it is not attached.
    std::int32_t attach_index(net::NodeId id) const
    {
        const auto slot = static_cast<std::size_t>(id);
        return id >= 0 && slot < index_by_id_.size() ? index_by_id_[slot] : -1;
    }

    /// One receiver a transmitter can affect, with the geometry-derived
    /// facts transmit() needs, precomputed once per topology. A deaf
    /// receiver has an entry only within delivery range, for its loss
    /// roll, and gets no signal.
    struct ReachEntry {
        NodePhy* phy;
        bool in_delivery;  ///< within tx_range: decode + per-link loss roll
        bool sensed;       ///< within cs_range: counts for energy detection
        bool listens;      ///< false: deaf, the loss roll is all it gets
        double power_w;    ///< received power (capture decisions)
    };
    // The flags share the padding after the pointer: a large grid keeps
    // millions of these.
    static_assert(sizeof(ReachEntry) == 24, "ReachEntry must stay 24 bytes");

    /// Rebuild the per-transmitter reachability sets after they were
    /// cleared.
    void ensure_reach();

    /// Signal-start `rx` at `phy` and enrol `phy` in the batched signal
    /// ends of `record`'s transmission at `end_at`. A batch event sits
    /// where its first receiver's own signal-end event would have been
    /// scheduled, so `phy` joins the open batch unless its signal_start
    /// scheduled something — an event for `end_at` would then fire
    /// between the two ends — and opens a new batch otherwise. The last
    /// batch also runs `sender`'s tx-end.
    void start_signal(NodePhy& phy, const RxEvent& rx, const FrameRef& record, SimTime end_at,
                      NodePhy& sender);
    /// Schedule the end event of the batch whose receivers start at
    /// index `begin` of `record`'s receiver list.
    void schedule_ends(const FrameRef& record, std::uint64_t signal_id, SimTime end_at,
                       std::size_t begin, NodePhy& sender);

    sim::Scheduler& scheduler_;
    util::Rng rng_;
    PhyParams params_;
    double capture_threshold_;  ///< max(capture_threshold, decode_floor(bitrate_bps))
    std::vector<NodePhy*> phys_;
    std::vector<std::int32_t> index_by_id_;  ///< attach position per node id; -1 = not attached
    std::vector<std::vector<ReachEntry>> reach_;  ///< per transmitter, in attach order
    LinkTable<double> link_loss_;
    FramePool frame_pool_;
    std::uint64_t next_signal_id_ = 1;
    std::uint64_t transmissions_ = 0;
    std::uint64_t data_transmissions_ = 0;
};

}  // namespace ezflow::phy

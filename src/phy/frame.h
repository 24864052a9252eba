#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/packet.h"
#include "util/units.h"

namespace ezflow::phy {

using net::NodeId;
using util::SimTime;

enum class FrameType { kData, kAck, kRts, kCts, kBlockAck };

/// One MPDU of a data frame: the MSDU payload plus its own MAC sequence
/// number and retry count — each MPDU succeeds or fails independently at
/// the PHY and is acknowledged and retransmitted on its own.
struct Mpdu {
    net::Packet packet{};
    std::uint32_t seq = 0;
    int retry = 0;  ///< retry index of this MPDU (0 = first transmission)
};

/// The MPDUs of one data frame, in ascending sequence order. The first
/// MPDU lives inline, so a single-MPDU frame costs no heap allocation;
/// only a multi-MPDU A-MPDU spills to the heap, and then holds every
/// MPDU there.
class MpduList {
public:
    std::size_t size() const { return many_.empty() ? (has_one_ ? 1 : 0) : many_.size(); }
    bool empty() const { return size() == 0; }

    const Mpdu* begin() const { return many_.empty() ? &one_ : many_.data(); }
    const Mpdu* end() const { return begin() + size(); }
    const Mpdu& operator[](std::size_t i) const { return many_.empty() ? one_ : many_[i]; }
    Mpdu& operator[](std::size_t i) { return many_.empty() ? one_ : many_[i]; }

    /// Room for `n` MPDUs without reallocation; a single-MPDU list stays
    /// inline and allocates nothing.
    void reserve(std::size_t n)
    {
        if (n > 1) many_.reserve(n);
    }

    void push_back(const Mpdu& mpdu)
    {
        if (many_.empty()) {
            if (!has_one_) {
                one_ = mpdu;
                has_one_ = true;
                return;
            }
            many_.push_back(one_);
            has_one_ = false;
        }
        many_.push_back(mpdu);
    }

private:
    Mpdu one_{};
    bool has_one_ = false;
    std::vector<Mpdu> many_;  ///< every MPDU, once there is more than one
};

/// A MAC frame on the air. A data frame carries one or more MPDUs;
/// control frames (ACK/RTS/CTS/block-ack) carry only the MAC addressing
/// and fields the exchange needs.
///
/// Copies are counted (a relaxed atomic, so multi-seed sweeps stay safe):
/// the transmission pipeline is single-copy by design — one FrameRecord
/// per transmission, handles everywhere else — and tests pin that down by
/// asserting the per-transmission copy count does not grow with the
/// receiver fan-out. Moves are free and uncounted.
struct Frame {
    FrameType type = FrameType::kData;
    NodeId tx_node = -1;  ///< transmitter (MAC source)
    NodeId rx_node = -1;  ///< addressee (MAC destination)
    std::uint32_t mac_seq = 0;
    int retry = 0;  ///< retry index of this transmission attempt (0 = first)
    /// Remaining duration of the exchange (NAV value), microseconds.
    /// Meaningful on RTS/CTS; third parties defer for this long after the
    /// frame ends.
    SimTime duration_us = 0;

    /// Data frames: the MPDUs, each error-checked, acknowledged and
    /// retransmitted individually. At most 64 (the compressed block-ack
    /// bitmap width).
    MpduList mpdus;
    /// Data frames: the MPDUs travel as an A-MPDU under a block-ack
    /// agreement (the sender's `ampdu_max_mpdus > 1`) — every MPDU pays a
    /// subframe delimiter and the receiver answers with a compressed
    /// block-ack. False: a single MPDU answered by a normal ACK, which may
    /// be protected by RTS/CTS.
    bool ampdu = false;
    /// Sender window start advertised on data frames (the oldest
    /// unsettled sequence number): the receiver releases its scoreboard
    /// and reorder buffer below it, so abandoned MPDUs never stall
    /// in-order delivery (BAR-free window advance). On kBlockAck frames:
    /// the responder's scoreboard window start.
    std::uint32_t ba_start_seq = 0;
    /// kBlockAck only: bit j acknowledges sequence ba_start_seq + j.
    std::uint64_t ba_bitmap = 0;

    /// Reception spans: one per MPDU of a data frame, a single one for a
    /// control frame. The PHY judges interference per span and the
    /// per-link loss rolls once per span.
    std::size_t span_count() const { return mpdus.empty() ? 1 : mpdus.size(); }

    Frame() = default;
    Frame(Frame&&) = default;
    Frame& operator=(Frame&&) = default;
    Frame(const Frame& other)
        : type(other.type),
          tx_node(other.tx_node),
          rx_node(other.rx_node),
          mac_seq(other.mac_seq),
          retry(other.retry),
          duration_us(other.duration_us),
          mpdus(other.mpdus),
          ampdu(other.ampdu),
          ba_start_seq(other.ba_start_seq),
          ba_bitmap(other.ba_bitmap)
    {
        copy_counter().fetch_add(1, std::memory_order_relaxed);
    }
    Frame& operator=(const Frame& other)
    {
        if (this != &other) {
            type = other.type;
            tx_node = other.tx_node;
            rx_node = other.rx_node;
            mac_seq = other.mac_seq;
            retry = other.retry;
            duration_us = other.duration_us;
            mpdus = other.mpdus;
            ampdu = other.ampdu;
            ba_start_seq = other.ba_start_seq;
            ba_bitmap = other.ba_bitmap;
            copy_counter().fetch_add(1, std::memory_order_relaxed);
        }
        return *this;
    }

    /// Process-wide count of Frame copies performed so far.
    static std::uint64_t copies() { return copy_counter().load(std::memory_order_relaxed); }

private:
    static std::atomic<std::uint64_t>& copy_counter()
    {
        static std::atomic<std::uint64_t> counter{0};
        return counter;
    }
};

/// The 802.11b DSSS/CCK rate ladder, bits per second.
inline constexpr std::array<std::int64_t, 4> kDsssRates = {1'000'000, 2'000'000, 5'500'000,
                                                           11'000'000};

/// Minimum SINR (linear) at which a frame modulated at `bitrate_bps`
/// decodes, a floor under the capture threshold: faster modulations need
/// more margin. The figures follow the usual DSSS/CCK
/// receiver-sensitivity deltas: 4, 7, 10 and 13 dB up the ladder.
double decode_floor(std::int64_t bitrate_bps);

/// PHY parameters: IEEE 802.11b DSSS, long preamble, fixed 1 Mb/s, and the
/// ns-2 default ranges the paper's simulations use.
struct PhyParams {
    double tx_range_m = 250.0;            ///< delivery range (two-ray, ns-2 default)
    double cs_range_m = 550.0;            ///< carrier-sense range
    double interference_range_m = 550.0;  ///< corrupts receptions within this range
    /// Capture threshold (linear SINR). A locked reception survives
    /// overlapping interference as long as its power exceeds the sum of
    /// interferer powers by this ratio (ns-2 CPThresh = 10 dB), or by
    /// `bitrate_bps`'s decode floor when that is higher (4 dB at 1 Mb/s,
    /// so the floor binds only below 2.51). Power follows the two-ray
    /// 1/d^4 law — all scenario distances exceed the ~86 m crossover, so
    /// the d^-4 regime applies throughout.
    double capture_threshold = 10.0;
    /// Modulation rate of every frame, data and control alike.
    std::int64_t bitrate_bps = 1'000'000;
    SimTime plcp_overhead_us = 192;    ///< long PLCP preamble + header at 1 Mb/s
    int mac_data_overhead_bytes = 36;  ///< 24 B MAC header + 4 B FCS + 8 B LLC/SNAP
    int ack_frame_bytes = 14;
    int rts_frame_bytes = 20;
    int cts_frame_bytes = 14;
    /// A-MPDU subframe delimiter prepended to every MPDU of an A-MPDU.
    int ampdu_delimiter_bytes = 4;
    /// Compressed block-ack frame: control header + starting sequence +
    /// 8-byte bitmap.
    int ba_frame_bytes = 32;

    /// Airtime of a frame, in microseconds. The payload time is rounded
    /// UP, matching 802.11 symbol rounding: a partially filled final
    /// microsecond still occupies the medium (at 1 Mb/s every frame is an
    /// exact number of microseconds, so the paper figures are unaffected;
    /// at 2/5.5/11 Mb/s truncation would undercount airtime). A data
    /// frame pays one PLCP for the whole PPDU plus each MPDU's on-air
    /// bytes — the amortization that makes A-MPDU a throughput (and
    /// events-per-byte) win.
    SimTime tx_duration(const Frame& frame) const
    {
        if (frame.type != FrameType::kData) return control_duration(frame.type);
        std::int64_t bytes = 0;
        for (const Mpdu& mpdu : frame.mpdus) bytes += mpdu_bytes(frame, mpdu);
        return airtime(bitrate_bps, bytes);
    }

    /// Airtime of a control frame (ACK, block-ack, RTS or CTS), in
    /// microseconds. A control frame's size is fixed by its type, so the
    /// MAC's NAV and timeout arithmetic needs no frame. Throws
    /// std::invalid_argument for kData, which has no fixed size.
    SimTime control_duration(FrameType type) const
    {
        switch (type) {
            case FrameType::kAck: return airtime(bitrate_bps, ack_frame_bytes);
            case FrameType::kRts: return airtime(bitrate_bps, rts_frame_bytes);
            case FrameType::kCts: return airtime(bitrate_bps, cts_frame_bytes);
            case FrameType::kBlockAck: return airtime(bitrate_bps, ba_frame_bytes);
            case FrameType::kData: break;
        }
        throw std::invalid_argument("PhyParams::control_duration: not a control frame type");
    }

    /// End offsets (microseconds from frame start) of the frame's
    /// reception spans (Frame::span_count): span i occupies
    /// [out[i-1], out[i]) with the PLCP preamble attributed to span 0. The
    /// last offset equals tx_duration(frame), so per-span interference
    /// intervals tile the airtime exactly.
    void span_end_offsets(const Frame& frame, std::vector<SimTime>& out) const
    {
        out.clear();
        if (frame.mpdus.empty()) {
            out.push_back(tx_duration(frame));
            return;
        }
        std::int64_t cum_bytes = 0;
        for (const Mpdu& mpdu : frame.mpdus) {
            cum_bytes += mpdu_bytes(frame, mpdu);
            out.push_back(airtime(bitrate_bps, cum_bytes));
        }
    }

    /// Radius within which two nodes can interact at all — delivery, carrier
    /// sense, or interference. Both the Channel's reachability cull and the
    /// sharded engine's conflict-graph partitioner (`net::plan_shards`) must
    /// use this same bound: the interference ledger accumulates energy from
    /// every node inside it, so a shard cut through this radius would lose
    /// ledger contributions.
    double conflict_radius_m() const
    {
        double r = tx_range_m;
        if (cs_range_m > r) r = cs_range_m;
        if (interference_range_m > r) r = interference_range_m;
        return r;
    }

private:
    /// On-air bytes of one MPDU: MAC overhead plus payload, plus the
    /// subframe delimiter inside an A-MPDU.
    std::int64_t mpdu_bytes(const Frame& frame, const Mpdu& mpdu) const
    {
        return mac_data_overhead_bytes + (frame.ampdu ? ampdu_delimiter_bytes : 0) +
               mpdu.packet.bytes;
    }
    SimTime airtime(std::int64_t rate, std::int64_t bytes) const
    {
        return plcp_overhead_us + (bytes * 8 * 1'000'000 + rate - 1) / rate;
    }
};

}  // namespace ezflow::phy

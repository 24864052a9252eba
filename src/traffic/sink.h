#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "util/stats.h"

namespace ezflow::traffic {

using util::SimTime;

/// One flow's per-delivery log: the instant, network delay and size of
/// every delivered packet, 10 B each. Entries live in fixed 4 KB chunks
/// that hold one base instant and up to 408 entries in parallel arrays: a
/// 32-bit offset from the base (us), a 32-bit delay (us) and a 16-bit
/// size. A chunk is allocated when the previous one is full or the next
/// offset would not fit 32 bits, so run length is unbounded, no entry is
/// ever copied on growth, and the slack is one partly filled chunk. A
/// delay of 2^32 - 1 us (71.6 min) or more is kept exactly in a side table
/// keyed by delivery index.
///
/// Every query feeds the same doubles in the same order as the
/// equivalent util::TimeSeries query over delay_series(), so results are
/// bit-identical to a log of (instant, delay) doubles.
class DeliveryLog {
public:
    /// Log a delivery at `at` with network delay `delay` (us, >= 0) and
    /// size `bytes`. Instants must be non-decreasing; std::invalid_argument
    /// otherwise.
    void add(SimTime at, SimTime delay, std::uint16_t bytes);

    std::size_t size() const { return size_; }

    /// The network delays (us) of the deliveries in [from, to): count,
    /// mean and max as util::TimeSeries::*_between report them.
    util::RunningStats delay_stats(SimTime from, SimTime to) const;
    /// Goodput over [from, to) in kb/s (0 for an empty interval).
    double goodput_kbps(SimTime from, SimTime to) const;
    /// The (instant, delay) series, built by value: for --csv dumps and
    /// tests, not for windowed queries.
    util::TimeSeries delay_series() const;

private:
    static constexpr std::size_t kChunkEntries = 408;
    /// Delay marker: the delivery's delay is in long_delays_.
    static constexpr std::uint32_t kLongDelay = 0xFFFFFFFFu;

    struct Chunk {
        SimTime base;  ///< instant of the chunk's first delivery
        std::uint32_t count;
        std::array<std::uint32_t, kChunkEntries> offsets;  ///< us after base
        std::array<std::uint32_t, kChunkEntries> delays;   ///< us, or kLongDelay
        std::array<std::uint16_t, kChunkEntries> bytes;
    };
    static_assert(sizeof(Chunk) == 4096, "a chunk is one 4 KB block");

    /// Calls fn(chunk, slot, delivery index) for each delivery in
    /// [from, to), in delivery order.
    template <typename Fn>
    void for_each_between(SimTime from, SimTime to, Fn&& fn) const;
    double delay_of(const Chunk& chunk, std::uint32_t slot, std::size_t index) const;

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
    std::map<std::size_t, SimTime> long_delays_;  ///< delivery index -> delay
};

/// Per-flow traffic sink. Installed at a flow's destination node; records
/// delivered bytes, end-to-end delay and in-order/duplicate accounting so
/// the analysis layer can compute throughput/delay/fairness exactly as the
/// paper reports them.
class Sink {
public:
    struct FlowRecord {
        std::uint64_t packets = 0;
        std::uint64_t bytes = 0;
        std::uint64_t duplicates = 0;
        std::uint64_t reordered = 0;
        /// Network delay: first transmission at the source -> delivery
        /// (the paper's end-to-end delay; a greedy source's local backlog
        /// is excluded, see net::Packet::first_tx_at).
        util::RunningStats delay_us;
        /// Total delay including the source's own queueing (from packet
        /// creation), kept for completeness.
        util::RunningStats total_delay_us;
        /// Every delivery's instant, network delay and size: windowed
        /// delay and goodput, and the Fig. 7 / Fig. 10 delay series. The
        /// size is 16-bit: an 802.11 MSDU is at most 2,304 B, and a packet
        /// over 65,535 B throws std::overflow_error rather than wrap.
        DeliveryLog deliveries;
        /// Highest sequence number seen, for reorder/duplicate detection.
        std::int64_t max_seq_seen = -1;
    };

    explicit Sink(net::Network& network);
    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;

    /// Streaming mode: keep only the whole-run RunningStats per flow —
    /// no delivery log — so sink memory is O(flows) regardless of run
    /// length. Windowed queries (goodput_kbps, the delivery log) are
    /// unavailable. Set before attaching flows.
    void set_streaming(bool on);
    bool streaming() const { return streaming_; }

    /// Attach this sink to the destination node of `flow_id`.
    void attach_flow(int flow_id);

    bool has_flow(int flow_id) const { return flows_.count(flow_id) > 0; }
    const FlowRecord& flow(int flow_id) const;

    /// Total goodput of a flow over [from, to) in kb/s, computed from the
    /// per-delivery instants and bytes. Throws in streaming mode (no log).
    double goodput_kbps(int flow_id, SimTime from, SimTime to) const;

    /// Stored per-delivery samples across all flows (one per delivery);
    /// stays 0 in streaming mode, where memory is flat in run length.
    std::size_t stored_samples() const;

private:
    /// `clock` is the destination node's shard scheduler: delivery
    /// timestamps are shard-local.
    void on_delivery(FlowRecord& record, const sim::Scheduler& clock, const net::Packet& packet);

    net::Network& network_;
    bool streaming_ = false;
    std::map<int, FlowRecord> flows_;  ///< std::map: records stay put for the handlers
};

}  // namespace ezflow::traffic

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "util/stats.h"

namespace ezflow::traffic {

using util::SimTime;

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
        /// (time, network delay) samples, for Fig. 7 / Fig. 10 plots.
        util::TimeSeries delay_series;
        /// Delivered bytes, one entry per delay_series sample (same
        /// index, same delivery instant) — kept to window throughput.
        std::vector<int> delivered_bytes;
        /// Highest sequence number seen, for reorder/duplicate detection.
        std::int64_t max_seq_seen = -1;
    };

    explicit Sink(net::Network& network);
    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;

    /// Streaming mode: keep only the whole-run RunningStats per flow —
    /// no delay series, no delivered-bytes log — so sink memory is O(flows)
    /// regardless of run length. Windowed queries (goodput_kbps, the
    /// delay_series) are unavailable. Set before attaching flows.
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
    /// stays 0 in streaming mode — the flat-memory assertion of the
    /// islands benchmark.
    std::size_t stored_samples() const;

private:
    void on_delivery(int flow_id, const net::Packet& packet);

    net::Network& network_;
    bool streaming_ = false;
    std::map<int, FlowRecord> flows_;
    /// The destination node's shard scheduler per flow: delivery
    /// timestamps are shard-local.
    std::map<int, sim::Scheduler*> schedulers_;
};

}  // namespace ezflow::traffic

#pragma once

// Per-period reference emitter for the backpressure-gated sources. It
// schedules one event per nominal packet period and sends every packet,
// whether or not the own-traffic queue has room. traffic::CbrSource parks on
// a queue-vacancy callback instead and accounts the dropped generations in
// closed form; traffic_test.cpp races the two and demands identical runs.
//
// Built only on public Network/Node API, so the reference cannot share a
// bug with the code it checks. It covers flows that stay routable (no
// fault plan): it has no pause-and-back-off path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "net/network.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::testutil {

class ReferenceSource {
public:
    struct Stats {
        std::uint64_t generated = 0;
        std::uint64_t accepted = 0;
        std::uint64_t dropped_at_source = 0;
    };

    ReferenceSource(net::Network& network, int flow_id, int payload_bytes, double rate_bps)
        : network_(network),
          flow_id_(flow_id),
          payload_bytes_(payload_bytes),
          ideal_us_(static_cast<double>(payload_bytes) * 8.0 * 1e6 / rate_bps),
          src_(network.routing_table().path(flow_id).front()),
          dst_(network.routing_table().path(flow_id).back()),
          scheduler_(network.scheduler_for(src_))
    {
    }

    void activate(util::SimTime start, util::SimTime stop)
    {
        stop_at_ = stop;
        scheduler_.schedule_at(start, [this] { emit(); });
    }

    const Stats& stats() const { return stats_; }

private:
    void emit()
    {
        if (scheduler_.now() >= stop_at_) return;
        net::Packet packet;
        packet.uid = (static_cast<std::uint64_t>(flow_id_ + 1) << 40) + next_seq_;
        packet.flow_id = flow_id_;
        packet.seq = next_seq_++;
        packet.src = src_;
        packet.dst = dst_;
        packet.bytes = payload_bytes_;
        packet.checksum = net::packet_checksum(flow_id_, packet.seq, src_, dst_, payload_bytes_);
        packet.created_at = scheduler_.now();
        ++stats_.generated;
        if (network_.node(src_).send(std::move(packet)))
            ++stats_.accepted;
        else
            ++stats_.dropped_at_source;
        ++ticks_;
        const util::SimTime gap = std::max<util::SimTime>(1, due(ticks_) - due(ticks_ - 1));
        scheduler_.schedule_at(scheduler_.now() + gap, [this] { emit(); });
    }

    /// traffic::CbrSource's error-carrying ideal timeline: packet n is
    /// due floor(n * payload_bits / rate) microseconds after activation.
    util::SimTime due(std::uint64_t n) const
    {
        return static_cast<util::SimTime>(std::floor(static_cast<double>(n) * ideal_us_));
    }

    net::Network& network_;
    int flow_id_;
    int payload_bytes_;
    double ideal_us_;
    net::NodeId src_;
    net::NodeId dst_;
    sim::Scheduler& scheduler_;
    util::SimTime stop_at_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t ticks_ = 0;
    Stats stats_;
};

}  // namespace ezflow::testutil

#include "traffic/sink.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ezflow::traffic {

void DeliveryLog::add(SimTime at, SimTime delay, std::uint16_t bytes)
{
    if (delay < 0) throw std::invalid_argument("DeliveryLog::add: negative delay");
    if (!chunks_.empty()) {
        const Chunk& last = *chunks_.back();
        if (at < last.base + last.offsets[last.count - 1])
            throw std::invalid_argument("DeliveryLog::add: instants must be non-decreasing");
    }
    if (chunks_.empty() || chunks_.back()->count == kChunkEntries ||
        at - chunks_.back()->base > std::numeric_limits<std::uint32_t>::max()) {
        chunks_.push_back(std::make_unique<Chunk>());
        chunks_.back()->base = at;
    }
    Chunk& chunk = *chunks_.back();
    const std::uint32_t slot = chunk.count++;
    chunk.offsets[slot] = static_cast<std::uint32_t>(at - chunk.base);
    if (delay >= kLongDelay) {
        long_delays_.emplace(size_, delay);
        chunk.delays[slot] = kLongDelay;
    } else {
        chunk.delays[slot] = static_cast<std::uint32_t>(delay);
    }
    chunk.bytes[slot] = bytes;
    ++size_;
}

template <typename Fn>
void DeliveryLog::for_each_between(SimTime from, SimTime to, Fn&& fn) const
{
    // The last chunk based before `from` may hold deliveries at or after
    // it; no earlier chunk can.
    auto it = std::lower_bound(
        chunks_.begin(), chunks_.end(), from,
        [](const std::unique_ptr<Chunk>& chunk, SimTime t) { return chunk->base < t; });
    if (it != chunks_.begin()) --it;
    std::size_t index = 0;
    for (auto before = chunks_.begin(); before != it; ++before) index += (*before)->count;
    const auto offset_before = [](std::uint32_t offset, SimTime t) { return offset < t; };
    for (; it != chunks_.end(); ++it) {
        const Chunk& chunk = **it;
        const auto begin = chunk.offsets.begin();
        const auto first =
            std::lower_bound(begin, begin + chunk.count, from - chunk.base, offset_before);
        for (auto slot = static_cast<std::uint32_t>(first - begin); slot < chunk.count; ++slot) {
            if (chunk.base + chunk.offsets[slot] >= to) return;
            fn(chunk, slot, index + slot);
        }
        index += chunk.count;
    }
}

double DeliveryLog::delay_of(const Chunk& chunk, std::uint32_t slot, std::size_t index) const
{
    const std::uint32_t delay = chunk.delays[slot];
    return static_cast<double>(delay != kLongDelay ? delay : long_delays_.at(index));
}

util::RunningStats DeliveryLog::delay_stats(SimTime from, SimTime to) const
{
    util::RunningStats stats;
    for_each_between(from, to, [&](const Chunk& chunk, std::uint32_t slot, std::size_t index) {
        stats.add(delay_of(chunk, slot, index));
    });
    return stats;
}

double DeliveryLog::goodput_kbps(SimTime from, SimTime to) const
{
    if (to <= from) return 0.0;
    double bits = 0.0;
    for_each_between(from, to, [&](const Chunk& chunk, std::uint32_t slot, std::size_t) {
        bits += static_cast<double>(chunk.bytes[slot]) * 8.0;
    });
    return util::kbps(static_cast<std::int64_t>(bits), to - from);
}

util::TimeSeries DeliveryLog::delay_series() const
{
    util::TimeSeries series;
    std::size_t index = 0;
    for (const std::unique_ptr<Chunk>& chunk : chunks_)
        for (std::uint32_t slot = 0; slot < chunk->count; ++slot, ++index)
            series.add(chunk->base + chunk->offsets[slot], delay_of(*chunk, slot, index));
    return series;
}

Sink::Sink(net::Network& network) : network_(network) {}

void Sink::set_streaming(bool on)
{
    if (!flows_.empty()) throw std::logic_error("Sink::set_streaming: flows already attached");
    streaming_ = on;
}

void Sink::attach_flow(int flow_id)
{
    if (flows_.count(flow_id) > 0)
        throw std::invalid_argument("Sink::attach_flow: already attached");
    FlowRecord* record = &flows_[flow_id];  // default-construct the record
    const auto& path = network_.routing_table().path(flow_id);
    const sim::Scheduler* clock = &network_.scheduler_for(path.back());
    net::Node& dst = network_.node(path.back());
    // Several flows can terminate at the same node; the callback filters
    // on the flow id this attach call registered.
    dst.add_delivery_handler([this, flow_id, record, clock](const net::Packet& packet) {
        if (packet.flow_id == flow_id) on_delivery(*record, *clock, packet);
    });
}

void Sink::on_delivery(FlowRecord& record, const sim::Scheduler& clock, const net::Packet& packet)
{
    if (!streaming_ && packet.bytes > std::numeric_limits<std::uint16_t>::max())
        throw std::overflow_error("Sink: flow " + std::to_string(packet.flow_id) +
                                  " delivered a " + std::to_string(packet.bytes) +
                                  " B packet, beyond a 16-bit log entry");
    const SimTime now = clock.now();
    const auto seq = static_cast<std::int64_t>(packet.seq);
    if (seq <= record.max_seq_seen) {
        // Either a duplicate (lost ACK path) or reordering; with FIFO
        // queues and a single path, equality means duplicate.
        if (seq == record.max_seq_seen)
            ++record.duplicates;
        else
            ++record.reordered;
    }
    record.max_seq_seen = std::max(record.max_seq_seen, seq);
    ++record.packets;
    record.bytes += static_cast<std::uint64_t>(packet.bytes);
    const SimTime network_start = packet.first_tx_at >= 0 ? packet.first_tx_at : packet.created_at;
    const SimTime delay = now - network_start;
    record.delay_us.add(static_cast<double>(delay));
    record.total_delay_us.add(static_cast<double>(now - packet.created_at));
    if (!streaming_)
        record.deliveries.add(now, delay, static_cast<std::uint16_t>(packet.bytes));
}

const Sink::FlowRecord& Sink::flow(int flow_id) const
{
    const auto it = flows_.find(flow_id);
    if (it == flows_.end()) throw std::invalid_argument("Sink::flow: unknown flow");
    return it->second;
}

double Sink::goodput_kbps(int flow_id, SimTime from, SimTime to) const
{
    if (streaming_)
        throw std::logic_error("Sink::goodput_kbps: no delivery log in streaming mode");
    return flow(flow_id).deliveries.goodput_kbps(from, to);
}

std::size_t Sink::stored_samples() const
{
    std::size_t total = 0;
    for (const auto& [flow, record] : flows_) total += record.deliveries.size();
    return total;
}

}  // namespace ezflow::traffic


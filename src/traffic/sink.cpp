#include "traffic/sink.h"

#include <stdexcept>

namespace ezflow::traffic {

Sink::Sink(net::Network& network) : network_(network) {}

void Sink::set_streaming(bool on)
{
    if (!flows_.empty()) throw std::logic_error("Sink::set_streaming: flows already attached");
    streaming_ = on;
}

void Sink::attach_flow(int flow_id)
{
    if (flows_.count(flow_id) > 0) throw std::invalid_argument("Sink::attach_flow: already attached");
    flows_[flow_id];  // default-construct the record
    if (!streaming_) arrivals_[flow_id];
    const auto& path = network_.routing_table().path(flow_id);
    schedulers_[flow_id] = &network_.scheduler_for(path.back());
    net::Node& dst = network_.node(path.back());
    // Several flows can terminate at the same node; the callback filters
    // on the flow id this attach call registered.
    dst.add_delivery_handler([this, flow_id](const net::Packet& packet) {
        if (packet.flow_id == flow_id) on_delivery(flow_id, packet);
    });
}

void Sink::on_delivery(int flow_id, const net::Packet& packet)
{
    FlowRecord& record = flows_.at(flow_id);
    const SimTime now = schedulers_.at(flow_id)->now();
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
    const auto delay = static_cast<double>(now - network_start);
    record.delay_us.add(delay);
    record.total_delay_us.add(static_cast<double>(now - packet.created_at));
    if (!streaming_) {
        record.delay_series.add(now, delay);
        arrivals_.at(flow_id).add(now, static_cast<double>(packet.bytes) * 8.0);
    }
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
        throw std::logic_error("Sink::goodput_kbps: no arrival log in streaming mode");
    const auto it = arrivals_.find(flow_id);
    if (it == arrivals_.end()) throw std::invalid_argument("Sink::goodput_kbps: unknown flow");
    if (to <= from) return 0.0;
    const util::TimeSeries& log = it->second;
    double bits = 0.0;
    const auto& times = log.times();
    const auto& values = log.values();
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] >= from && times[i] < to) bits += values[i];
    }
    return util::kbps(static_cast<std::int64_t>(bits), to - from);
}

std::size_t Sink::stored_samples() const
{
    std::size_t total = 0;
    for (const auto& [flow, record] : flows_) total += record.delay_series.size();
    for (const auto& [flow, log] : arrivals_) total += log.size();
    return total;
}

}  // namespace ezflow::traffic


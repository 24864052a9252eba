#include "analysis/recorder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ezflow::analysis {

namespace {

/// Group items into per-shard sweeps, preserving the input order within
/// each shard; sweeps ascend by shard id. One shard (the serial
/// reference) yields a single sweep over the original order, so the
/// event pattern is byte-identical to the unsharded tracer.
template <typename Item, typename Sweep, typename ShardOf>
std::vector<Sweep> group_by_shard(net::Network& network, const std::vector<Item>& items,
                                  const ShardOf& shard_of)
{
    std::map<int, std::vector<Item>> by_shard;
    for (const Item& item : items) by_shard[shard_of(item)].push_back(item);
    std::vector<Sweep> sweeps;
    sweeps.reserve(by_shard.size());
    for (auto& [shard, members] : by_shard)
        sweeps.push_back(Sweep{&network.shard_scheduler(shard), std::move(members)});
    return sweeps;
}

}  // namespace

BufferTracer::BufferTracer(net::Network& network, std::vector<net::NodeId> nodes, SimTime period,
                           bool streaming)
    : network_(network), period_(period), streaming_(streaming)
{
    if (period_ <= 0) throw std::invalid_argument("BufferTracer: period must be > 0");
    for (net::NodeId n : nodes) {
        if (streaming_)
            stats_[n];
        else
            traces_[n];
    }
    sweeps_ = group_by_shard<net::NodeId, Sweep>(
        network_, nodes, [this](net::NodeId n) { return network_.shard_of(n); });
}

void BufferTracer::start()
{
    if (started_) throw std::logic_error("BufferTracer::start: already started");
    started_ = true;
    for (std::size_t s = 0; s < sweeps_.size(); ++s)
        sweeps_[s].scheduler->schedule_in(period_, [this, s] { sample(s); });
}

void BufferTracer::sample(std::size_t sweep)
{
    Sweep& group = sweeps_[sweep];
    const SimTime now = group.scheduler->now();
    for (net::NodeId n : group.nodes) {
        const int backlog = network_.node(n).mac().queues().total_packets();
        if (streaming_)
            stats_.at(n).add(static_cast<double>(backlog));
        else
            traces_.at(n).add(now, static_cast<double>(backlog));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

const util::TimeSeries& BufferTracer::trace(net::NodeId node) const
{
    if (streaming_)
        throw std::logic_error("BufferTracer::trace: no series in streaming mode");
    const auto it = traces_.find(node);
    if (it == traces_.end()) throw std::invalid_argument("BufferTracer::trace: untracked node");
    return it->second;
}

double BufferTracer::mean_occupancy(net::NodeId node, SimTime from, SimTime to) const
{
    if (streaming_) {
        const auto it = stats_.find(node);
        if (it == stats_.end())
            throw std::invalid_argument("BufferTracer::mean_occupancy: untracked node");
        return it->second.mean();  // whole-run mean; windows need the series
    }
    return trace(node).mean_between(from, to);
}

double BufferTracer::max_occupancy(net::NodeId node) const
{
    if (streaming_) {
        const auto it = stats_.find(node);
        if (it == stats_.end())
            throw std::invalid_argument("BufferTracer::max_occupancy: untracked node");
        return it->second.count() > 0 ? it->second.max() : 0.0;
    }
    const util::TimeSeries& t = trace(node);
    double max = 0.0;
    for (double v : t.values()) max = std::max(max, v);
    return max;
}

std::size_t BufferTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const auto& [node, series] : traces_) total += series.size();
    return total;
}

ThroughputMeter::ThroughputMeter(net::Network& network, int flow_id, SimTime window)
    : network_(network), flow_id_(flow_id), window_(window)
{
    if (window_ <= 0) throw std::invalid_argument("ThroughputMeter: window must be > 0");
    const auto& path = network_.routing_table().path(flow_id);
    scheduler_ = &network_.scheduler_for(path.back());
    network_.node(path.back()).add_delivery_handler([this](const net::Packet& packet) {
        if (packet.flow_id == flow_id_)
            bits_in_window_ += static_cast<std::uint64_t>(packet.bytes) * 8;
    });
}

void ThroughputMeter::start()
{
    if (started_) throw std::logic_error("ThroughputMeter::start: already started");
    started_ = true;
    scheduler_->schedule_in(window_, [this] { on_window(); });
}

void ThroughputMeter::on_window()
{
    series_.add(scheduler_->now(), util::kbps(static_cast<std::int64_t>(bits_in_window_), window_));
    bits_in_window_ = 0;
    scheduler_->schedule_in(window_, [this] { on_window(); });
}

CwTracer::CwTracer(net::Network& network, std::vector<Target> targets, SimTime period,
                   bool streaming)
    : network_(network), period_(period), streaming_(streaming)
{
    if (period_ <= 0) throw std::invalid_argument("CwTracer: period must be > 0");
    for (const Target& t : targets) {
        if (streaming_)
            stats_[t.node];
        else
            traces_[t.node];
    }
    sweeps_ = group_by_shard<Target, Sweep>(
        network_, targets, [this](const Target& t) { return network_.shard_of(t.node); });
}

void CwTracer::start()
{
    if (started_) throw std::logic_error("CwTracer::start: already started");
    started_ = true;
    for (std::size_t s = 0; s < sweeps_.size(); ++s)
        sweeps_[s].scheduler->schedule_in(period_, [this, s] { sample(s); });
}

void CwTracer::sample(std::size_t sweep)
{
    Sweep& group = sweeps_[sweep];
    const SimTime now = group.scheduler->now();
    for (const Target& t : group.targets) {
        // Either traffic class toward the successor carries the EZ-Flow
        // cw; prefer whichever queue exists.
        const mac::MacQueueSet& queues = network_.node(t.node).mac().queues();
        const mac::MacQueue* q = queues.find(mac::QueueKey{t.successor, false});
        if (q == nullptr) q = queues.find(mac::QueueKey{t.successor, true});
        if (q == nullptr) continue;  // node has not transmitted yet
        if (streaming_)
            stats_.at(t.node).add(static_cast<double>(q->cw_min()));
        else
            traces_.at(t.node).add(now, static_cast<double>(q->cw_min()));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

const util::TimeSeries& CwTracer::trace(net::NodeId node) const
{
    if (streaming_) throw std::logic_error("CwTracer::trace: no series in streaming mode");
    const auto it = traces_.find(node);
    if (it == traces_.end()) throw std::invalid_argument("CwTracer::trace: untracked node");
    return it->second;
}

std::size_t CwTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const auto& [node, series] : traces_) total += series.size();
    return total;
}

}  // namespace ezflow::analysis

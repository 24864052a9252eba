#include "analysis/recorder.h"

#include <algorithm>
#include <stdexcept>
#include <string>
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
    sweeps_ = group_by_shard<net::NodeId, Sweep>(
        network_, nodes, [this](net::NodeId n) { return network_.shard_of(n); });
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
        Sweep& sweep = sweeps_[s];
        for (std::size_t i = 0; i < sweep.nodes.size(); ++i)
            if (!columns_.emplace(sweep.nodes[i], Column{s, i}).second)
                throw std::invalid_argument("BufferTracer: node tracked twice");
        if (streaming_)
            sweep.stats.resize(sweep.nodes.size());
        else
            sweep.backlogs.resize(sweep.nodes.size());
    }
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
    if (!streaming_) group.times.push_back(group.scheduler->now());
    for (std::size_t i = 0; i < group.nodes.size(); ++i) {
        const int backlog = network_.node(group.nodes[i]).mac().queues().total_packets();
        if (streaming_)
            group.stats[i].add(static_cast<double>(backlog));
        else
            group.backlogs[i].push_back(static_cast<std::int32_t>(backlog));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

const BufferTracer::Column& BufferTracer::column(net::NodeId node, const char* who) const
{
    const auto it = columns_.find(node);
    if (it == columns_.end())
        throw std::invalid_argument(std::string("BufferTracer::") + who + ": untracked node");
    return it->second;
}

util::TimeSeries BufferTracer::trace(net::NodeId node) const
{
    if (streaming_)
        throw std::logic_error("BufferTracer::trace: no series in streaming mode");
    const Column& c = column(node, "trace");
    const Sweep& sweep = sweeps_[c.sweep];
    const std::vector<std::int32_t>& backlogs = sweep.backlogs[c.index];
    util::TimeSeries series;
    for (std::size_t i = 0; i < backlogs.size(); ++i)
        series.add(sweep.times[i], static_cast<double>(backlogs[i]));
    return series;
}

double BufferTracer::mean_occupancy(net::NodeId node, SimTime from, SimTime to) const
{
    const Column& c = column(node, "mean_occupancy");
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) return sweep.stats[c.index].mean();  // whole-run mean; windows need the series
    // The same values in the same order as TimeSeries::mean_between.
    const std::vector<std::int32_t>& backlogs = sweep.backlogs[c.index];
    util::RunningStats window;
    const auto first = std::lower_bound(sweep.times.begin(), sweep.times.end(), from);
    for (auto i = static_cast<std::size_t>(first - sweep.times.begin());
         i < sweep.times.size() && sweep.times[i] < to; ++i)
        window.add(static_cast<double>(backlogs[i]));
    return window.mean();
}

double BufferTracer::max_occupancy(net::NodeId node) const
{
    const Column& c = column(node, "max_occupancy");
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) {
        const util::RunningStats& stats = sweep.stats[c.index];
        return stats.count() > 0 ? stats.max() : 0.0;
    }
    std::int32_t max = 0;
    for (std::int32_t v : sweep.backlogs[c.index]) max = std::max(max, v);
    return static_cast<double>(max);
}

std::size_t BufferTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const Sweep& sweep : sweeps_) total += sweep.nodes.size() * sweep.times.size();
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
    sweeps_ = group_by_shard<Target, Sweep>(
        network_, targets, [this](const Target& t) { return network_.shard_of(t.node); });
    for (Sweep& sweep : sweeps_)
        for (const Target& t : sweep.targets)
            sweep.slots.push_back(slot_of_.emplace(t.node, slot_of_.size()).first->second);
    if (streaming_)
        stats_.resize(slot_of_.size());
    else
        traces_.resize(slot_of_.size());
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
    for (std::size_t i = 0; i < group.targets.size(); ++i) {
        const Target& t = group.targets[i];
        // Either traffic class toward the successor carries the EZ-Flow
        // cw; prefer whichever queue exists.
        const mac::MacQueueSet& queues = network_.node(t.node).mac().queues();
        const mac::MacQueue* q = queues.find(mac::QueueKey{t.successor, false});
        if (q == nullptr) q = queues.find(mac::QueueKey{t.successor, true});
        if (q == nullptr) continue;  // node has not transmitted yet
        if (streaming_)
            stats_[group.slots[i]].add(static_cast<double>(q->cw_min()));
        else
            traces_[group.slots[i]].add(now, static_cast<double>(q->cw_min()));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

const util::TimeSeries& CwTracer::trace(net::NodeId node) const
{
    if (streaming_) throw std::logic_error("CwTracer::trace: no series in streaming mode");
    const auto it = slot_of_.find(node);
    if (it == slot_of_.end()) throw std::invalid_argument("CwTracer::trace: untracked node");
    return traces_[it->second];
}

std::size_t CwTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const util::TimeSeries& series : traces_) total += series.size();
    return total;
}

}  // namespace ezflow::analysis

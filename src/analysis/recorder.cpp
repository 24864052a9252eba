#include "analysis/recorder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ezflow::analysis {

namespace {

/// Group items into per-shard sweeps, preserving the input order within
/// each shard; sweeps ascend by shard id. One shard (the serial
/// reference) yields a single sweep over the original order, so the
/// event pattern is byte-identical to the unsharded tracer. Each item's
/// node gets its column (sweep, index) in `columns`; a node listed twice
/// throws.
template <typename Item, typename Sweep, typename Column, typename NodeOf>
std::vector<Sweep> group_by_shard(net::Network& network, const std::vector<Item>& items,
                                  const NodeOf& node_of, std::map<net::NodeId, Column>& columns,
                                  const char* who)
{
    std::map<int, std::vector<Item>> by_shard;
    for (const Item& item : items) by_shard[network.shard_of(node_of(item))].push_back(item);
    std::vector<Sweep> sweeps;
    sweeps.reserve(by_shard.size());
    for (auto& [shard, members] : by_shard) {
        for (std::size_t i = 0; i < members.size(); ++i)
            if (!columns.emplace(node_of(members[i]), Column{sweeps.size(), i}).second)
                throw std::invalid_argument(std::string(who) + ": node tracked twice");
        sweeps.push_back(Sweep{&network.shard_scheduler(shard), std::move(members)});
    }
    return sweeps;
}

template <typename Column>
const Column& find_column(const std::map<net::NodeId, Column>& columns, net::NodeId node,
                          const char* who)
{
    const auto it = columns.find(node);
    if (it == columns.end()) throw std::invalid_argument(std::string(who) + ": untracked node");
    return it->second;
}

/// `value` as a column sample; one that does not fit 16 bits throws
/// rather than wraps.
std::uint16_t narrow_sample(int value, const char* who, net::NodeId node)
{
    if (value < 0 || value > std::numeric_limits<std::uint16_t>::max())
        throw std::overflow_error(std::string(who) + ": node " + std::to_string(node) +
                                  " sampled " + std::to_string(value) +
                                  ", which does not fit a 16-bit column");
    return static_cast<std::uint16_t>(value);
}

/// A column whose samples were taken at times[first], times[first + 1], ...
util::TimeSeries column_series(const std::vector<SimTime>& times, std::size_t first,
                               const std::vector<std::uint16_t>& values)
{
    util::TimeSeries series;
    for (std::size_t i = 0; i < values.size(); ++i)
        series.add(times[first + i], static_cast<double>(values[i]));
    return series;
}

/// Mean of such a column's samples taken in [from, to): the same values
/// in the same order as TimeSeries::mean_between over column_series.
double column_mean(const std::vector<SimTime>& times, std::size_t first,
                   const std::vector<std::uint16_t>& values, SimTime from, SimTime to)
{
    const auto begin = times.begin() + static_cast<std::ptrdiff_t>(first);
    const auto end = begin + static_cast<std::ptrdiff_t>(values.size());
    util::RunningStats window;
    for (auto it = std::lower_bound(begin, end, from); it != end && *it < to; ++it)
        window.add(static_cast<double>(values[static_cast<std::size_t>(it - begin)]));
    return window.mean();
}

}  // namespace

BufferTracer::BufferTracer(net::Network& network, std::vector<net::NodeId> nodes, SimTime period,
                           bool streaming)
    : network_(network), period_(period), streaming_(streaming)
{
    if (period_ <= 0) throw std::invalid_argument("BufferTracer: period must be > 0");
    sweeps_ = group_by_shard<net::NodeId, Sweep>(
        network_, nodes, [](net::NodeId n) { return n; }, columns_, "BufferTracer");
    for (Sweep& sweep : sweeps_) {
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
            group.backlogs[i].push_back(narrow_sample(backlog, "BufferTracer", group.nodes[i]));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

util::TimeSeries BufferTracer::trace(net::NodeId node) const
{
    if (streaming_)
        throw std::logic_error("BufferTracer::trace: no series in streaming mode");
    const Column& c = find_column(columns_, node, "BufferTracer::trace");
    const Sweep& sweep = sweeps_[c.sweep];
    return column_series(sweep.times, 0, sweep.backlogs[c.index]);
}

double BufferTracer::mean_occupancy(net::NodeId node, SimTime from, SimTime to) const
{
    const Column& c = find_column(columns_, node, "BufferTracer::mean_occupancy");
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) return sweep.stats[c.index].mean();  // whole-run mean; windows need the series
    return column_mean(sweep.times, 0, sweep.backlogs[c.index], from, to);
}

double BufferTracer::max_occupancy(net::NodeId node) const
{
    const Column& c = find_column(columns_, node, "BufferTracer::max_occupancy");
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) {
        const util::RunningStats& stats = sweep.stats[c.index];
        return stats.count() > 0 ? stats.max() : 0.0;
    }
    std::uint16_t max = 0;
    for (std::uint16_t v : sweep.backlogs[c.index]) max = std::max(max, v);
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
        network_, targets, [](const Target& t) { return t.node; }, columns_, "CwTracer");
    for (Sweep& sweep : sweeps_) {
        if (streaming_) {
            sweep.stats.resize(sweep.targets.size());
        } else {
            sweep.first.resize(sweep.targets.size());
            sweep.cws.resize(sweep.targets.size());
        }
    }
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
    if (!streaming_) group.times.push_back(group.scheduler->now());
    for (std::size_t i = 0; i < group.targets.size(); ++i) {
        const Target& t = group.targets[i];
        // Either traffic class toward the successor carries the EZ-Flow
        // cw; prefer whichever queue exists.
        const mac::MacQueueSet& queues = network_.node(t.node).mac().queues();
        const mac::MacQueue* q = queues.find(mac::QueueKey{t.successor, false});
        if (q == nullptr) q = queues.find(mac::QueueKey{t.successor, true});
        const bool sampled = streaming_ ? group.stats[i].count() > 0 : !group.cws[i].empty();
        if (q == nullptr) {
            if (sampled)
                throw std::logic_error("CwTracer: node " + std::to_string(t.node) +
                                       " lost its queue toward " + std::to_string(t.successor));
            continue;  // node has not transmitted yet
        }
        if (streaming_) {
            group.stats[i].add(static_cast<double>(q->cw_min()));
            continue;
        }
        const std::uint16_t cw = narrow_sample(q->cw_min(), "CwTracer", t.node);
        if (!sampled) group.first[i] = group.times.size() - 1;
        group.cws[i].push_back(cw);
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

util::TimeSeries CwTracer::trace(net::NodeId node) const
{
    if (streaming_) throw std::logic_error("CwTracer::trace: no series in streaming mode");
    const Column& c = find_column(columns_, node, "CwTracer::trace");
    const Sweep& sweep = sweeps_[c.sweep];
    return column_series(sweep.times, sweep.first[c.index], sweep.cws[c.index]);
}

double CwTracer::mean_cw(net::NodeId node, SimTime from, SimTime to) const
{
    const Column& c = find_column(columns_, node, "CwTracer::mean_cw");
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) return sweep.stats[c.index].mean();  // whole-run mean; windows need the series
    return column_mean(sweep.times, sweep.first[c.index], sweep.cws[c.index], from, to);
}

std::size_t CwTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const Sweep& sweep : sweeps_)
        for (const std::vector<std::uint16_t>& column : sweep.cws) total += column.size();
    return total;
}

}  // namespace ezflow::analysis

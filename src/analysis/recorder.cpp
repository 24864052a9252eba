#include "analysis/recorder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ezflow::analysis {

QueueTracer::QueueTracer(net::Network& network, Quantity quantity, std::vector<Target> targets,
                         SimTime period, bool streaming)
    : network_(network), quantity_(quantity), period_(period), streaming_(streaming)
{
    if (period_ <= 0) throw std::invalid_argument("QueueTracer: period must be > 0");
    // Group targets into per-shard sweeps, preserving the input order
    // within each shard; sweeps ascend by shard id. One shard (the serial
    // reference) yields a single sweep over the original order.
    std::map<int, std::vector<Target>> by_shard;
    for (const Target& t : targets) by_shard[network_.shard_of(t.node)].push_back(t);
    for (auto& [shard, members] : by_shard) {
        for (std::size_t i = 0; i < members.size(); ++i)
            if (!columns_.emplace(members[i].node, Column{sweeps_.size(), i}).second)
                throw std::invalid_argument("QueueTracer: node tracked twice");
        Sweep& sweep =
            sweeps_.emplace_back(Sweep{&network_.shard_scheduler(shard), std::move(members)});
        if (streaming_) {
            sweep.stats.resize(sweep.targets.size());
        } else {
            sweep.first.resize(sweep.targets.size());
            sweep.columns.resize(sweep.targets.size());
        }
    }
}

void QueueTracer::start()
{
    if (started_) throw std::logic_error("QueueTracer::start: already started");
    started_ = true;
    for (std::size_t s = 0; s < sweeps_.size(); ++s)
        sweeps_[s].scheduler->schedule_in(period_, [this, s] { sample(s); });
}

std::optional<int> QueueTracer::read(const Target& target) const
{
    const mac::MacQueueSet& queues = network_.node(target.node).mac().queues();
    if (quantity_ == Quantity::kBacklog) return queues.total_packets();
    // Either traffic class toward the successor carries the EZ-Flow cw;
    // prefer whichever queue exists.
    const mac::MacQueue* q = queues.find(mac::QueueKey{target.successor, false});
    if (q == nullptr) q = queues.find(mac::QueueKey{target.successor, true});
    if (q == nullptr) return std::nullopt;
    return q->cw_min();
}

void QueueTracer::sample(std::size_t sweep)
{
    Sweep& group = sweeps_[sweep];
    if (!streaming_) {
        const SimTime now = group.scheduler->now();
        if (group.instants == 0)
            group.t0 = now;
        else if (now != instant(group, group.instants))
            throw std::logic_error("QueueTracer: a sweep fired off its period grid");
        ++group.instants;
    }
    for (std::size_t i = 0; i < group.targets.size(); ++i) {
        const Target& t = group.targets[i];
        const std::optional<int> value = read(t);
        const bool sampled = streaming_ ? group.stats[i].count() > 0 : !group.columns[i].empty();
        if (!value) {
            if (sampled)
                throw std::logic_error("QueueTracer: node " + std::to_string(t.node) +
                                       " lost its queue toward " + std::to_string(t.successor));
            continue;  // node has not transmitted yet
        }
        if (streaming_) {
            group.stats[i].add(static_cast<double>(*value));
            continue;
        }
        if (*value < 0 || *value > std::numeric_limits<std::uint16_t>::max())
            throw std::overflow_error("QueueTracer: node " + std::to_string(t.node) + " sampled " +
                                      std::to_string(*value) +
                                      ", which does not fit a 16-bit column");
        if (!sampled) group.first[i] = group.instants - 1;
        group.columns[i].push_back(static_cast<std::uint16_t>(*value));
    }
    group.scheduler->schedule_in(period_, [this, sweep] { sample(sweep); });
}

const QueueTracer::Column& QueueTracer::column(net::NodeId node) const
{
    const auto it = columns_.find(node);
    if (it == columns_.end())
        throw std::invalid_argument("QueueTracer: untracked node " + std::to_string(node));
    return it->second;
}

util::TimeSeries QueueTracer::trace(net::NodeId node) const
{
    if (streaming_) throw std::logic_error("QueueTracer::trace: no series in streaming mode");
    const Column& c = column(node);
    const Sweep& sweep = sweeps_[c.sweep];
    const std::vector<std::uint16_t>& values = sweep.columns[c.index];
    const std::size_t first = sweep.first[c.index];
    util::TimeSeries series;
    for (std::size_t i = 0; i < values.size(); ++i)
        series.add(instant(sweep, first + i), static_cast<double>(values[i]));
    return series;
}

double QueueTracer::mean(net::NodeId node, SimTime from, SimTime to) const
{
    const Column& c = column(node);
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) return sweep.stats[c.index].mean();  // whole-run mean; windows need the series
    // The samples taken in [from, to): the same values in the same order
    // as TimeSeries::mean_between over trace().
    const std::vector<std::uint16_t>& values = sweep.columns[c.index];
    const std::size_t first = sweep.first[c.index];
    // The first instant at or after `from`, by ceiling division.
    std::size_t k = first;
    if (from > sweep.t0)
        k = std::max(k, static_cast<std::size_t>((from - sweep.t0 + period_ - 1) / period_));
    util::RunningStats window;
    for (; k < first + values.size() && instant(sweep, k) < to; ++k)
        window.add(static_cast<double>(values[k - first]));
    return window.mean();
}

double QueueTracer::max(net::NodeId node) const
{
    const Column& c = column(node);
    const Sweep& sweep = sweeps_[c.sweep];
    if (streaming_) {
        const util::RunningStats& stats = sweep.stats[c.index];
        return stats.count() > 0 ? stats.max() : 0.0;
    }
    std::uint16_t peak = 0;
    for (std::uint16_t v : sweep.columns[c.index]) peak = std::max(peak, v);
    return static_cast<double>(peak);
}

std::size_t QueueTracer::stored_samples() const
{
    std::size_t total = 0;
    for (const Sweep& sweep : sweeps_)
        for (const std::vector<std::uint16_t>& column : sweep.columns) total += column.size();
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

}  // namespace ezflow::analysis

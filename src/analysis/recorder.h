#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "mac/mac_queue.h"
#include "net/network.h"
#include "util/stats.h"

namespace ezflow::analysis {

using util::SimTime;

/// Samples the MAC buffer occupancy of a set of nodes at a fixed period,
/// producing the (time, queue size) traces of Fig. 1 and Fig. 4. The
/// sampled value is the node's total MAC backlog (all interface queues),
/// which is what the testbed's driver instrumentation measured.
///
/// Sampling is vectorized per shard: one periodic sweep event per shard
/// visits every tracked node of that shard (a single chain — the serial
/// reference — when the network is unsharded), so tracer event cost is
/// O(shards) per period instead of O(nodes).
///
/// Storage is columnar: each sweep keeps one time column shared by its
/// nodes and one 2-byte backlog column per node, so a sample costs 2 B
/// plus 8 B per sweep instant rather than a (time, value) pair per node.
/// A backlog is a packet count bounded by the queue capacity; one above
/// 65,535 throws std::overflow_error naming the node instead of wrapping.
///
/// `streaming` mode keeps only whole-run RunningStats per node instead
/// of the columns — O(nodes) memory for arbitrarily long runs. trace()
/// is unavailable then; mean_occupancy ignores its window and reports
/// the whole-run mean.
class BufferTracer {
public:
    /// `nodes` must not repeat a node.
    BufferTracer(net::Network& network, std::vector<net::NodeId> nodes, SimTime period,
                 bool streaming = false);

    /// Begin periodic sampling at the next period boundary.
    void start();

    /// The (time, backlog) series of `node`, built from the columns.
    util::TimeSeries trace(net::NodeId node) const;
    /// Mean occupancy of `node` over [from, to) (whole run in streaming
    /// mode).
    double mean_occupancy(net::NodeId node, SimTime from, SimTime to) const;
    /// Max occupancy of `node` over the whole trace.
    double max_occupancy(net::NodeId node) const;

    bool streaming() const { return streaming_; }
    /// Node samples held, one per node per sweep instant (stays 0 in
    /// streaming mode, where memory is flat in run length).
    std::size_t stored_samples() const;

private:
    struct Sweep {
        sim::Scheduler* scheduler;
        std::vector<net::NodeId> nodes;
        std::vector<SimTime> times{};                        ///< one per sweep instant
        std::vector<std::vector<std::uint16_t>> backlogs{};  ///< per node, aligned with times
        std::vector<util::RunningStats> stats{};             ///< per node, streaming mode only
    };
    /// Where a node's column lives: its sweep and its index in it.
    struct Column {
        std::size_t sweep;
        std::size_t index;
    };

    void sample(std::size_t sweep);

    net::Network& network_;
    SimTime period_;
    bool streaming_;
    std::vector<Sweep> sweeps_;  ///< one periodic chain per shard, shard id ascending
    std::map<net::NodeId, Column> columns_;
    bool started_ = false;
};

/// Windowed goodput meter for a flow: records kb/s per window, the series
/// behind Fig. 6's throughput-vs-time plots. Runs on the destination
/// node's shard scheduler; memory is O(run length / window), independent
/// of event count.
class ThroughputMeter {
public:
    ThroughputMeter(net::Network& network, int flow_id, SimTime window);

    void start();

    const util::TimeSeries& series() const { return series_; }
    /// Mean/stddev of the per-window goodput over [from, to), counting
    /// only windows that end inside the interval.
    double mean_kbps(SimTime from, SimTime to) const { return series_.mean_between(from, to); }
    double stddev_kbps(SimTime from, SimTime to) const { return series_.stddev_between(from, to); }
    /// Windows ending inside [from, to) — 0 means the interval was never
    /// measured (run too short / meter not yet started), as opposed to a
    /// measured zero-goodput interval.
    std::int64_t samples(SimTime from, SimTime to) const
    {
        return series_.count_between(from, to);
    }

private:
    void on_window();

    net::Network& network_;
    sim::Scheduler* scheduler_;  ///< the destination node's shard
    int flow_id_;
    SimTime window_;
    util::TimeSeries series_;
    std::uint64_t bits_in_window_ = 0;
    bool started_ = false;
};

/// Samples EZ-Flow contention windows (per node, toward a given successor)
/// periodically: the data behind Fig. 8 / Fig. 11. Works off the MAC's
/// queue CWmin so it also traces the baseline and penalty policies.
/// Vectorized per shard and streamable exactly like BufferTracer.
///
/// Storage is columnar too: each sweep keeps one time column, and each
/// target one 2-byte CW column plus the index of its first sample in
/// the time column, so a sample costs 2 B plus 8 B per sweep instant.
/// A node's samples start once its queue toward the successor exists,
/// and MAC queues are never removed, so its column covers a contiguous
/// run of sweep instants up to the latest; a queue that disappears
/// after the first sample throws std::logic_error. A CWmin above 65,535
/// throws std::overflow_error naming the node.
class CwTracer {
public:
    struct Target {
        net::NodeId node;
        net::NodeId successor;
    };

    /// `targets` must not repeat a node.
    CwTracer(net::Network& network, std::vector<Target> targets, SimTime period,
             bool streaming = false);

    void start();

    /// The (time, CWmin) series of `node`, built from the columns.
    util::TimeSeries trace(net::NodeId node) const;
    /// Mean CWmin of `node` over [from, to) (whole run in streaming mode;
    /// 0 when no sample falls in the window).
    double mean_cw(net::NodeId node, SimTime from, SimTime to) const;

    bool streaming() const { return streaming_; }
    std::size_t stored_samples() const;

private:
    struct Sweep {
        sim::Scheduler* scheduler;
        std::vector<Target> targets;
        std::vector<SimTime> times{};                   ///< one per sweep instant
        std::vector<std::size_t> first{};               ///< per target, its first sample's instant
        std::vector<std::vector<std::uint16_t>> cws{};  ///< per target, from times[first] on
        std::vector<util::RunningStats> stats{};        ///< per target, streaming mode only
    };
    struct Column {
        std::size_t sweep;
        std::size_t index;
    };

    void sample(std::size_t sweep);

    net::Network& network_;
    SimTime period_;
    bool streaming_;
    std::vector<Sweep> sweeps_;  ///< one periodic chain per shard, shard id ascending
    std::map<net::NodeId, Column> columns_;
    bool started_ = false;
};

}  // namespace ezflow::analysis

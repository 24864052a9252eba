#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mac/mac_queue.h"
#include "net/network.h"
#include "util/stats.h"

namespace ezflow::analysis {

using util::SimTime;

/// Samples one quantity of a set of nodes at a fixed period: the node's
/// total MAC backlog (all interface queues, what the testbed's driver
/// instrumentation measured), giving the (time, queue size) traces of
/// Fig. 1 and Fig. 4; or the CWmin of its MAC queue toward a given
/// successor, giving the contention-window traces of Fig. 8 and Fig. 11
/// (the queue's CWmin, so it also traces the baseline and penalty
/// policies).
///
/// Sampling is vectorized per shard: one periodic sweep event per shard
/// visits every target of that shard (a single chain — the serial
/// reference — when the network is unsharded), so tracer event cost is
/// O(shards) per period instead of O(nodes).
///
/// Storage is columnar: each target keeps one 2-byte column plus the
/// index of its first sample among its sweep's instants, so a sample
/// costs 2 B. No time is stored per instant: a sweep re-arms itself one
/// period after each instant, so instant k is its first instant plus k
/// periods (a sweep that fires off that grid throws std::logic_error).
/// A backlog is sampled from the first sweep on. A CWmin is sampled once
/// the queue toward the successor exists, and MAC queues are never
/// removed, so the column covers a contiguous run of sweep instants up
/// to the latest; a queue that disappears after the first sample throws
/// std::logic_error. A sample above 65,535 throws std::overflow_error
/// naming the node instead of wrapping.
///
/// `streaming` mode keeps only whole-run RunningStats per target instead
/// of the columns — O(nodes) memory for arbitrarily long runs. trace()
/// is unavailable then; mean() ignores its window and reports the
/// whole-run mean.
class QueueTracer {
public:
    enum class Quantity {
        kBacklog,  ///< the node's total MAC backlog, in packets
        kCwMin,    ///< the CWmin of the node's queue toward `successor`
    };
    struct Target {
        net::NodeId node;
        net::NodeId successor;  ///< unused for kBacklog
    };

    /// `targets` must not repeat a node.
    QueueTracer(net::Network& network, Quantity quantity, std::vector<Target> targets,
                SimTime period, bool streaming = false);

    /// Begin periodic sampling at the next period boundary.
    void start();

    /// The (time, value) series of `node`, built from the columns.
    util::TimeSeries trace(net::NodeId node) const;
    /// Mean sample of `node` over [from, to) (whole run in streaming mode;
    /// 0 when no sample falls in the window).
    double mean(net::NodeId node, SimTime from, SimTime to) const;
    /// Max sample of `node` over the whole run (0 before its first).
    double max(net::NodeId node) const;

    /// Target samples held, one per sampled target per sweep instant
    /// (stays 0 in streaming mode, where memory is flat in run length).
    std::size_t stored_samples() const;

private:
    struct Sweep {
        sim::Scheduler* scheduler;
        std::vector<Target> targets;
        SimTime t0 = 0;                                     ///< the first instant
        std::size_t instants = 0;                           ///< instants swept so far
        std::vector<std::size_t> first{};                   ///< per target, first sample's instant
        std::vector<std::vector<std::uint16_t>> columns{};  ///< per target, from instant first on
        std::vector<util::RunningStats> stats{};            ///< per target, streaming mode only
    };
    /// Where a node's column lives: its sweep and its index in it.
    struct Column {
        std::size_t sweep;
        std::size_t index;
    };

    void sample(std::size_t sweep);
    /// Instant k of `sweep`.
    SimTime instant(const Sweep& sweep, std::size_t k) const
    {
        return sweep.t0 + static_cast<SimTime>(k) * period_;
    }
    /// The quantity at `target` now; none while its CW queue does not exist.
    std::optional<int> read(const Target& target) const;
    /// Throws std::invalid_argument for an untracked node.
    const Column& column(net::NodeId node) const;

    net::Network& network_;
    Quantity quantity_;
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

}  // namespace ezflow::analysis

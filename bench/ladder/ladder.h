#pragma once

// ezflow_ladder: the fixed benchmark of the simulator (see README.md).
// Four workloads, each stressing different layers, driven through the
// library's public API only. This header holds what main.cpp, the
// workload runner, the checks and the report/compare code share.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"

namespace ezflow::ladder {

/// One benchmark workload: the experiments a repetition runs, in order,
/// and whether a serial twin of the (sharded) experiment is checked.
struct Workload {
    struct Run {
        analysis::ScenarioSpec spec;
        analysis::ExperimentOptions options;
        int shard_threads = 1;
    };
    std::string name;
    std::vector<Run> runs;
    bool serial_twin = false;
};

/// The workload names, in ladder order.
const std::vector<std::string>& workload_names();

/// The named workload. `sim_scale` (0, 1] shortens simulated time for
/// smoke runs; 1 is the benchmark. Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, double sim_scale);

/// Per-layer counters of one repetition, summed over its experiments,
/// read from public accessors. All repeat exactly for a given seed.
struct Counters {
    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    std::uint64_t heap_records_peak = 0;  ///< max at run end (traced: at every slice end)
    std::uint64_t epochs = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t nodes = 0;
    std::uint64_t reach_sum = 0;  ///< sum of reachable_count over nodes
    std::uint64_t transmissions = 0;
    std::uint64_t data_transmissions = 0;
    std::uint64_t frame_pool_created = 0;
    std::uint64_t data_attempts = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t retry_drops = 0;
    std::uint64_t successes = 0;
    std::uint64_t contention_expiries = 0;  ///< shard 0's coordinator
    std::uint64_t slots_batched = 0;        ///< shard 0's coordinator
    std::uint64_t block_acks_sent = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t forward_queue_drops = 0;
    std::uint64_t reorder_buffered = 0;
    std::uint64_t boe_samples = 0;
    std::uint64_t boe_matches = 0;
    std::uint64_t boe_misses = 0;
    std::uint64_t caa_decisions = 0;
    std::uint64_t generated = 0;
    std::uint64_t dropped_at_source = 0;
    std::uint64_t stored_samples = 0;
};

/// The experiment counters a span observes at its start and end.
struct SpanCounts {
    std::uint64_t events = 0;
    std::uint64_t transmissions = 0;
    std::uint64_t delivered = 0;
    std::uint64_t epochs = 0;
};

/// One span of the traced run. Times are steady_clock nanoseconds since
/// the tracer started.
struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into the span list, -1 for a root
    int rep = 0;
    int experiment = -1;  ///< index into Workload::runs, -1 for the rep span
    SpanCounts deltas;    ///< zero for spans with no experiment yet
};

/// Keeps spans in memory; written out once, when the run ends.
class Tracer {
public:
    Tracer();
    int begin(std::string name, int parent, int rep, int experiment, const SpanCounts& now);
    void end(int span, const SpanCounts& now);

    const std::vector<Span>& spans() const { return spans_; }
    /// Duration minus the part of the interval its children cover.
    std::int64_t self_ns(int span) const;

private:
    std::int64_t now_ns() const;

    std::int64_t origin_ns_;
    std::vector<Span> spans_;
    std::vector<SpanCounts> open_;  ///< counts at begin, per span
};

/// Result of one repetition.
struct RepResult {
    double wall_s = 0.0;   ///< build, run, checks and teardown
    double setup_s = 0.0;  ///< build_scenario + Experiment constructor
    double run_s = 0.0;    ///< the run_until phase only
    Counters counters;
    std::uint64_t digest = 0;
    int attempted = 0;                  ///< experiments run
    std::vector<std::string> failures;  ///< one line per failed check
    int failed = 0;                     ///< experiments with a failed check
};

/// Number of equal simulated-time slices of a traced run.
constexpr int kTraceSlices = 20;

/// Run one repetition of `workload`. With a tracer, spans are recorded
/// and the run phase is split into kTraceSlices run_until slices (which
/// leaves the simulated outcome unchanged); without one, nothing but the
/// coarse timings is taken.
RepResult run_rep(const Workload& workload, std::uint64_t seed, int rep, Tracer* tracer);

/// Run the serial twin of a sharded workload's first experiment (same
/// spec and seed, one shard). Returns its digest, failures and run phase.
RepResult run_serial_twin(const Workload& workload, std::uint64_t seed);

}  // namespace ezflow::ladder

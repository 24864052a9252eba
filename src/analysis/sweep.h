#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_factory.h"
#include "analysis/result.h"

namespace ezflow::analysis {

/// One measurement interval of a sweep, in scenario seconds, plus the
/// flows to summarize inside it. Fairness (Jain's index) is computed over
/// exactly these flows.
struct SweepWindow {
    std::string label;
    double from_s = 0.0;
    double to_s = 0.0;
    std::vector<int> flow_ids;
};

/// Runs one seed's experiment and adds its windows to `cell` (labelled
/// with the factory's label beforehand). Every metric is a point value:
/// n = 1 when measured, n = 0 when declared but not measured.
using SeedMeasure = std::function<void(Experiment& experiment, RunResult& cell)>;

/// The flow-window measure: run() to the end, then per window, per flow,
/// "F<id>.kbps", ".kbps_sd" (n = 0 without throughput samples),
/// ".delay_s", ".delay_max_s" (n = 0 without deliveries), then
/// "fairness" when the window spans several flows and "aggregate_kbps".
SeedMeasure summarize_windows(std::vector<SweepWindow> windows);

/// A sweep cell: the experiment to stamp out per seed and what to
/// measure in each.
struct SweepCell {
    ExperimentFactory factory;
    SeedMeasure measure;
};

struct SweepConfig {
    std::vector<std::uint64_t> seeds;
    /// Keep each cell's first-seed Experiment (time series, tracers) —
    /// for figure runners that also dump one run's traces.
    bool keep_first = false;
};

/// Everything a sweep of one cell produced. Deterministic: the same
/// cells and seeds yield bit-identical per-seed results regardless of the
/// thread count (each task runs an independent Network and writes to its
/// own slot); fold_seeds merges them serially in seed order.
struct SweepResult {
    std::vector<RunResult> per_seed;    ///< parallel to config.seeds
    std::unique_ptr<Experiment> first;  ///< when config.keep_first
};

/// Fans an experiment grid (sweep cells x seeds) across a thread pool.
/// One independent Network per task; per-seed RNG streams are derived
/// from the task's seed alone, so results do not depend on scheduling.
class SweepRunner {
public:
    /// `threads` <= 0 selects hardware concurrency. It also bounds the
    /// threads each sharded network runs its shards on
    /// (net::Network::set_shard_threads).
    explicit SweepRunner(int threads = 0) : threads_(threads) {}

    /// Sweep one cell across config.seeds.
    SweepResult run(const SweepCell& cell, const SweepConfig& config) const;

    /// Sweep several cells over the same seed grid. The full cells x seeds
    /// task list shares one pool, so parallelism spans the grid, not just
    /// one cell. Results are in cell order.
    std::vector<SweepResult> run_grid(const std::vector<SweepCell>& cells,
                                      const SweepConfig& config) const;

private:
    int threads_;
};

}  // namespace ezflow::analysis

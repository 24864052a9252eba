#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace ezflow::analysis {

/// One reported metric of a figure: the across-seed mean, the 95%
/// confidence half-width, and the number of seeds behind it. A single
/// seed's measurement is a point value: n = 1 when measured, n = 0 when
/// declared but not measured (a delay window with no deliveries).
struct MetricStat {
    double mean = 0.0;
    double ci95 = 0.0;
    int n = 1;
};

/// A single-run value (no confidence interval).
inline MetricStat metric_point(double value)
{
    return MetricStat{value, 0.0, 1};
}

/// One measurement window of one grid cell: a label ("F1 alone", "P2",
/// "settled") plus an insertion-ordered metric map. Metric names are
/// stable identifiers ("F1.kbps", "fairness", "N1.buf_mean") — the diff
/// harness matches goldens by them.
struct WindowResult {
    std::string label;
    std::vector<std::pair<std::string, MetricStat>> metrics;

    void set(const std::string& name, MetricStat value);
    const MetricStat* find(const std::string& name) const;
};

/// Everything one grid cell (scenario x policy/variant) of a figure
/// produced: the cell label and its measurement windows in order.
struct RunResult {
    std::string label;
    std::vector<WindowResult> windows;

    WindowResult& add_window(const std::string& label);
    const WindowResult* find_window(const std::string& label) const;
};

/// The machine-readable product of one figure run: what `ezflow run`
/// serializes to <out>/<figure>.json and `ezflow diff` compares against
/// the committed goldens. Deliberately excludes wall-clock time and the
/// thread count so same-seed runs are byte-identical across machines'
/// parallelism (the CI determinism gate relies on this).
struct FigureResult {
    static constexpr int kSchemaVersion = 1;

    std::string figure;  ///< registry name, e.g. "fig06"
    std::string title;
    double scale = 1.0;
    std::uint64_t seed = 0;
    int seeds = 1;
    std::vector<RunResult> cells;

    RunResult& add_cell(const std::string& label);
    const RunResult* find_cell(const std::string& label) const;

    util::Json to_json() const;
    static FigureResult from_json(const util::Json& json);

    /// Flat CSV rows (cell,window,metric,mean,ci95,n), one per metric.
    std::string to_csv() const;
};

/// Fold one cell's per-seed results, in seed order: each metric's
/// measured seeds (n = 1) go through a util::RunningStats into its mean,
/// 95% CI half-width and count, so a single seed folds to exactly its
/// point value and a metric no seed measured keeps its name with n = 0.
/// The result keeps the first seed's cell, window and metric order.
/// Throws std::invalid_argument on no seeds and std::logic_error when
/// seeds disagree on any label or name.
RunResult fold_seeds(const std::vector<RunResult>& per_seed);

}  // namespace ezflow::analysis

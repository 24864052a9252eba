#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/result.h"
#include "analysis/sweep.h"
#include "cli/registry.h"
#include "util/csv.h"
#include "util/stats.h"

// Shared plumbing for the registered figure runners — the successor of
// the old bench/bench_common.h, producing structured FigureResults
// instead of printf tables.
namespace ezflow::cli {

/// Sweep `cells` over the context's seed grid on one pool (--threads);
/// under --csv each cell also keeps its first-seed Experiment. Results in
/// cell order; fold each one's per_seed with analysis::fold_seeds.
inline std::vector<analysis::SweepResult> sweep_cells(const FigureContext& ctx,
                                                      const std::vector<analysis::SweepCell>& cells)
{
    analysis::SweepConfig config;
    config.seeds = ctx.seed_grid();
    config.keep_first = !ctx.csv_dir.empty();
    return analysis::SweepRunner(ctx.threads).run_grid(cells, config);
}

/// One cell per mode over `spec`, each measured by `measure`; results in
/// mode order.
inline std::vector<analysis::SweepResult> sweep_modes(const FigureContext& ctx,
                                                      const analysis::ScenarioSpec& spec,
                                                      const std::vector<analysis::Mode>& modes,
                                                      const analysis::SeedMeasure& measure)
{
    analysis::ScenarioSpec resolved = spec;
    // --shards overrides the figure's shard budget; connected topologies
    // collapse back to one shard, so this is always safe to pass.
    if (ctx.shards > 0) resolved.shards = ctx.shards;
    std::vector<analysis::SweepCell> cells;
    cells.reserve(modes.size());
    for (analysis::Mode mode : modes) {
        analysis::ExperimentOptions options;
        options.mode = mode;
        options.streaming = ctx.streaming;
        cells.push_back({analysis::ExperimentFactory(resolved, options), measure});
    }
    return sweep_cells(ctx, cells);
}

/// Fold each sweep's seeds (analysis::fold_seeds) into `result`, merging
/// by label in sweep order: a fold under a new cell label becomes a cell;
/// otherwise its windows join that cell, and a window whose label the
/// cell already has adds its metrics to that window. So a figure cell can
/// gather one sweep cell per window (the ablations), and a window one
/// sweep cell per metric (table1).
inline void add_folded(analysis::FigureResult& result,
                       const std::vector<analysis::SweepResult>& sweeps)
{
    for (const analysis::SweepResult& sweep : sweeps) {
        analysis::RunResult folded = analysis::fold_seeds(sweep.per_seed);
        auto cell =
            std::find_if(result.cells.begin(), result.cells.end(),
                         [&](const analysis::RunResult& c) { return c.label == folded.label; });
        if (cell == result.cells.end()) {
            result.cells.push_back(std::move(folded));
            continue;
        }
        for (analysis::WindowResult& window : folded.windows) {
            auto same = std::find_if(
                cell->windows.begin(), cell->windows.end(),
                [&](const analysis::WindowResult& w) { return w.label == window.label; });
            if (same == cell->windows.end())
                cell->windows.push_back(std::move(window));
            else
                for (const auto& [name, stat] : window.metrics) same->set(name, stat);
        }
    }
}

/// Start a FigureResult stamped with the context's run options.
inline analysis::FigureResult make_result(const FigureContext& ctx)
{
    analysis::FigureResult result;
    result.figure = ctx.spec->name;
    result.title = ctx.spec->title;
    result.scale = ctx.scale;
    result.seed = ctx.seed;
    result.seeds = ctx.seeds;
    return result;
}

/// The three activity periods of scenario 1 (Fig. 5 timeline), scaled.
struct Scenario1Periods {
    double p1_begin, p1_end;  ///< F1 alone
    double p2_begin, p2_end;  ///< F1 + F2
    double p3_begin, p3_end;  ///< F1 alone again
    double total;

    explicit Scenario1Periods(double scale)
        : p1_begin(5 * scale),
          p1_end(605 * scale),
          p2_begin(605 * scale),
          p2_end(1804 * scale),
          p3_begin(1804 * scale),
          p3_end(2504 * scale),
          total(2504 * scale)
    {
    }

    /// The settled regime of each period (the paper reports means net of a
    /// warmup after every traffic-matrix change), as sweep windows.
    std::vector<analysis::SweepWindow> windows() const
    {
        const double w1 = 0.3 * (p1_end - p1_begin);
        const double w2 = 0.3 * (p2_end - p2_begin);
        return {
            {"F1 alone", p1_begin + w1, p1_end, {1}},
            {"F1 + F2", p2_begin + w2, p2_end, {1, 2}},
            {"F1 alone again", p3_begin + w2, p3_end, {1}},
        };
    }
};

/// The three activity periods of scenario 2 (Fig. 9 timeline), scaled.
struct Scenario2Periods {
    double p1_begin, p1_end;  ///< F1 + F2
    double p2_begin, p2_end;  ///< F1 + F2 + F3
    double p3_begin, p3_end;  ///< F1 alone
    double total;

    explicit Scenario2Periods(double scale)
        : p1_begin(5 * scale),
          p1_end(1805 * scale),
          p2_begin(1805 * scale),
          p2_end(3605 * scale),
          p3_begin(3605 * scale),
          p3_end(4500 * scale),
          total(4500 * scale)
    {
    }

    std::vector<analysis::SweepWindow> windows() const
    {
        const double w1 = 0.3 * (p1_end - p1_begin);
        const double w2 = 0.3 * (p2_end - p2_begin);
        const double w3 = 0.3 * (p3_end - p3_begin);
        return {
            {"F1 + F2", p1_begin + w1, p1_end, {1, 2}},
            {"F1 + F2 + F3", p2_begin + w2, p2_end, {1, 2, 3}},
            {"F1 alone", p3_begin + w3, p3_end, {1}},
        };
    }
};

/// Write `ts` as `<csv_dir>/<name>_<label>.csv`.
inline void dump_series(const FigureContext& ctx, const std::string& name,
                        const std::string& label, const util::TimeSeries& ts)
{
    util::CsvWriter csv(ctx.csv_dir + "/" + name + "_" + label + ".csv", {"time_s", "value"});
    for (std::size_t i = 0; i < ts.size(); ++i)
        csv.add_row(std::vector<double>{util::to_seconds(ts.times()[i]), ts.values()[i]});
}

/// Dump a time series set as CSV when the context carries a --csv dir.
inline void maybe_dump_series(
    const FigureContext& ctx, const std::string& name,
    const std::vector<std::pair<std::string, const util::TimeSeries*>>& series)
{
    if (ctx.csv_dir.empty()) return;
    for (const auto& [label, ts] : series) dump_series(ctx, name, label, *ts);
}

/// The same for series held by value (built only when there is a --csv
/// dir to write them to, such as QueueTracer::trace).
inline void maybe_dump_series(const FigureContext& ctx, const std::string& name,
                              const std::vector<std::pair<std::string, util::TimeSeries>>& series)
{
    if (ctx.csv_dir.empty()) return;
    for (const auto& [label, ts] : series) dump_series(ctx, name, label, ts);
}

/// Node id for a paper label like "N12" (-1 when absent).
inline int label_to_node(const net::Scenario& scenario, const std::string& label)
{
    for (const auto& [id, l] : scenario.labels)
        if (l == label) return id;
    return -1;
}

}  // namespace ezflow::cli

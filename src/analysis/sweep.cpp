#include "analysis/sweep.h"

#include <stdexcept>

#include "util/parallel.h"

namespace ezflow::analysis {

SeedMeasure summarize_windows(std::vector<SweepWindow> windows)
{
    return [windows = std::move(windows)](Experiment& experiment, RunResult& cell) {
        experiment.run();
        for (const SweepWindow& spec : windows) {
            WindowResult& window = cell.add_window(spec.label);
            double aggregate_kbps = 0.0;
            for (int flow_id : spec.flow_ids) {
                const auto summary = experiment.summarize(flow_id, spec.from_s, spec.to_s);
                aggregate_kbps += summary.mean_kbps;
                // A window the run never measured (no throughput windows /
                // no deliveries inside it) reads 0.0 either way; n = 0 keeps
                // it out of the fold, diffable as missing data rather than
                // as a measured zero.
                const int rate_n = summary.throughput_samples > 0 ? 1 : 0;
                const int delay_n = summary.delay_samples > 0 ? 1 : 0;
                const std::string prefix = "F" + std::to_string(flow_id);
                window.set(prefix + ".kbps", MetricStat{summary.mean_kbps, 0.0, rate_n});
                window.set(prefix + ".kbps_sd", MetricStat{summary.stddev_kbps, 0.0, rate_n});
                window.set(prefix + ".delay_s", MetricStat{summary.mean_delay_s, 0.0, delay_n});
                window.set(prefix + ".delay_max_s",
                           MetricStat{summary.max_delay_s, 0.0, delay_n});
            }
            if (spec.flow_ids.size() > 1) {
                const double fairness = experiment.fairness(spec.flow_ids, spec.from_s, spec.to_s);
                window.set("fairness", metric_point(fairness));
            }
            window.set("aggregate_kbps", metric_point(aggregate_kbps));
        }
    };
}

SweepResult SweepRunner::run(const SweepCell& cell, const SweepConfig& config) const
{
    std::vector<SweepResult> results = run_grid({cell}, config);
    return std::move(results.front());
}

std::vector<SweepResult> SweepRunner::run_grid(const std::vector<SweepCell>& cells,
                                               const SweepConfig& config) const
{
    if (cells.empty()) throw std::invalid_argument("SweepRunner::run_grid: no cells");
    if (config.seeds.empty()) throw std::invalid_argument("SweepRunner::run_grid: no seeds");

    std::vector<SweepResult> results(cells.size());
    const std::size_t seeds = config.seeds.size();
    for (SweepResult& result : results) result.per_seed.resize(seeds);

    // One task per (cell, seed); every task owns its Network and writes
    // only to its pre-sized slot. A sharded network runs its shards on
    // the same thread budget.
    const int task_count = static_cast<int>(cells.size() * seeds);
    util::parallel_for(task_count, threads_, [&](int task) {
        const std::size_t c = static_cast<std::size_t>(task) / seeds;
        const std::size_t s = static_cast<std::size_t>(task) % seeds;
        std::unique_ptr<Experiment> experiment = cells[c].factory.make(config.seeds[s]);
        experiment->network().set_shard_threads(threads_);
        RunResult& cell = results[c].per_seed[s];
        cell.label = cells[c].factory.label();
        cells[c].measure(*experiment, cell);
        if (config.keep_first && s == 0) results[c].first = std::move(experiment);
    });
    return results;
}

}  // namespace ezflow::analysis

#include "analysis/sweep.h"

#include <stdexcept>

#include "util/parallel.h"

namespace ezflow::analysis {

namespace {

/// Run one (cell, seed) task to completion and summarize every window.
/// A sharded network runs its shards on `threads` threads too.
SeedResult run_one(const ExperimentFactory& factory, const SweepConfig& config,
                   std::uint64_t seed, int threads, std::unique_ptr<Experiment>* keep)
{
    std::unique_ptr<Experiment> experiment = factory.make(seed);
    experiment->network().set_shard_threads(threads);
    experiment->run();
    SeedResult result;
    result.seed = seed;
    result.windows.reserve(config.windows.size());
    for (const SweepWindow& window : config.windows) {
        SeedResult::Window measured;
        measured.flows.reserve(window.flow_ids.size());
        for (int flow_id : window.flow_ids) {
            const auto summary = experiment->summarize(flow_id, window.from_s, window.to_s);
            measured.aggregate_kbps += summary.mean_kbps;
            measured.flows.push_back(summary);
        }
        measured.fairness = window.flow_ids.empty()
                                ? 1.0
                                : experiment->fairness(window.flow_ids, window.from_s, window.to_s);
        result.windows.push_back(std::move(measured));
    }
    if (keep != nullptr) *keep = std::move(experiment);
    return result;
}

/// Serial, seed-ordered merge of per-seed measurements — the aggregation
/// order is fixed so sweeps are bit-identical across thread counts.
void aggregate(const SweepConfig& config, SweepResult& sweep)
{
    sweep.windows.assign(config.windows.size(), WindowAggregate{});
    for (std::size_t w = 0; w < config.windows.size(); ++w)
        sweep.windows[w].flows.assign(config.windows[w].flow_ids.size(), FlowAggregate{});

    for (const SeedResult& seed_result : sweep.per_seed) {
        for (std::size_t w = 0; w < seed_result.windows.size(); ++w) {
            const SeedResult::Window& measured = seed_result.windows[w];
            WindowAggregate& agg = sweep.windows[w];
            for (std::size_t f = 0; f < measured.flows.size(); ++f) {
                const Experiment::FlowSummary& summary = measured.flows[f];
                // A window the run never measured (no throughput windows /
                // no deliveries inside it) contributes no sample: its 0.0
                // is fabricated, and folding it in would be
                // indistinguishable from a genuine zero. The across-seed
                // count then lands in the result JSON as n=0 — diffable as
                // missing data, not as a measured zero.
                if (summary.throughput_samples > 0) {
                    agg.flows[f].mean_kbps.add(summary.mean_kbps);
                    agg.flows[f].stddev_kbps.add(summary.stddev_kbps);
                }
                if (summary.delay_samples > 0) {
                    agg.flows[f].mean_delay_s.add(summary.mean_delay_s);
                    agg.flows[f].max_delay_s.add(summary.max_delay_s);
                }
            }
            agg.fairness.add(measured.fairness);
            agg.aggregate_kbps.add(measured.aggregate_kbps);
        }
    }
}

}  // namespace

SweepResult SweepRunner::run(const ExperimentFactory& factory, const SweepConfig& config) const
{
    std::vector<SweepResult> results = run_grid({factory}, config);
    return std::move(results.front());
}

std::vector<SweepResult> SweepRunner::run_grid(const std::vector<ExperimentFactory>& cells,
                                               const SweepConfig& config) const
{
    if (cells.empty()) throw std::invalid_argument("SweepRunner::run_grid: no cells");
    if (config.seeds.empty()) throw std::invalid_argument("SweepRunner::run_grid: no seeds");

    std::vector<SweepResult> results(cells.size());
    const std::size_t seeds = config.seeds.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        results[c].label = cells[c].label();
        results[c].per_seed.resize(seeds);
        if (config.keep_experiments) results[c].experiments.resize(seeds);
    }

    // One task per (cell, seed); every task owns its Network and writes
    // only to its pre-sized slot.
    const int task_count = static_cast<int>(cells.size() * seeds);
    util::parallel_for(task_count, threads_, [&](int task) {
        const std::size_t c = static_cast<std::size_t>(task) / seeds;
        const std::size_t s = static_cast<std::size_t>(task) % seeds;
        std::unique_ptr<Experiment>* keep =
            config.keep_experiments ? &results[c].experiments[s] : nullptr;
        results[c].per_seed[s] = run_one(cells[c], config, config.seeds[s], threads_, keep);
    });

    for (SweepResult& result : results) aggregate(config, result);
    return results;
}

}  // namespace ezflow::analysis

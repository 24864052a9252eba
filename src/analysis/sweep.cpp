#include "analysis/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "analysis/drop_audit.h"
#include "util/parallel.h"

namespace ezflow::analysis {

namespace {

// Effort accumulators behind perf_totals(). Wall time is tracked in
// nanoseconds so a plain integer atomic suffices.
std::atomic<std::uint64_t> g_events{0};
std::atomic<std::uint64_t> g_runs{0};
std::atomic<std::uint64_t> g_wall_ns{0};

// Shard accounting for the [perf] line: completed runs per shard count
// and per-shard event totals over a fixed number of display slots.
constexpr int kShardSlots = 8;
std::mutex g_shard_mutex;
std::map<int, std::uint64_t> g_runs_by_shards;  ///< guarded by g_shard_mutex
std::atomic<std::uint64_t> g_shard_events[kShardSlots]{};
std::atomic<std::uint64_t> g_epochs{0};
std::atomic<std::uint64_t> g_sharded_events{0};

/// Run one (cell, seed) task to completion and summarize every window.
SeedResult run_one(const ExperimentFactory& factory, const SweepConfig& config,
                   std::uint64_t seed, std::unique_ptr<Experiment>* keep)
{
    std::unique_ptr<Experiment> experiment = factory.make(seed);
    experiment->run();
    // Every swept run balances its packet ledger: the losses must
    // partition into the named drop buckets (throws on a leak or a
    // double-count, so the goldens cannot absorb an accounting bug).
    // Interceptor runs (EZ-Flow pacers) cannot balance and are skipped —
    // announce that coverage gap once per process instead of silently
    // returning an all-zero ledger.
    if (audit_drop_accounting(*experiment).skipped()) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed))
            std::fprintf(stderr,
                         "[audit] drop-accounting audit skipped for runs with forward "
                         "interceptors (pacer holds packets outside the MAC queues); "
                         "conservation is unchecked there\n");
    }
    net::Network& network = experiment->network();
    g_events.fetch_add(network.total_processed(), std::memory_order_relaxed);
    g_runs.fetch_add(1, std::memory_order_relaxed);
    const int shards = network.shard_count();
    {
        const std::lock_guard<std::mutex> lock(g_shard_mutex);
        ++g_runs_by_shards[shards];
    }
    if (shards > 1) {
        for (int s = 0; s < shards && s < kShardSlots; ++s)
            g_shard_events[s].fetch_add(network.shard_processed(s), std::memory_order_relaxed);
        g_epochs.fetch_add(network.sharded_engine()->epochs(), std::memory_order_relaxed);
        g_sharded_events.fetch_add(network.total_processed(), std::memory_order_relaxed);
    }

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

PerfTotals perf_totals()
{
    PerfTotals totals;
    totals.events = g_events.load(std::memory_order_relaxed);
    totals.runs = g_runs.load(std::memory_order_relaxed);
    totals.wall_seconds = static_cast<double>(g_wall_ns.load(std::memory_order_relaxed)) * 1e-9;
    {
        const std::lock_guard<std::mutex> lock(g_shard_mutex);
        totals.runs_by_shards = g_runs_by_shards;
    }
    for (const std::atomic<std::uint64_t>& events : g_shard_events)
        totals.shard_events.push_back(events.load(std::memory_order_relaxed));
    totals.epochs = g_epochs.load(std::memory_order_relaxed);
    totals.sharded_events = g_sharded_events.load(std::memory_order_relaxed);
    return totals;
}

int PerfTotals::shards_since(const PerfTotals& before) const
{
    int widest = 1;
    for (const auto& [shards, runs] : runs_by_shards) {
        const auto it = before.runs_by_shards.find(shards);
        if (runs > (it == before.runs_by_shards.end() ? 0 : it->second) && shards > widest)
            widest = shards;
    }
    return widest;
}

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

    const auto started = std::chrono::steady_clock::now();

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
        results[c].per_seed[s] = run_one(cells[c], config, config.seeds[s], keep);
    });

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    g_wall_ns.fetch_add(static_cast<std::uint64_t>(wall * 1e9), std::memory_order_relaxed);
    for (SweepResult& result : results) {
        aggregate(config, result);
        result.wall_seconds = wall;
    }
    return results;
}

}  // namespace ezflow::analysis

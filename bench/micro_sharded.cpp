// Space-parallel benchmarks for the sharded engine: aggregate event rate
// on the disconnected-islands topology at 1..N shards, the explicit
// 1-vs-2-shard scaling ratio recorded in the BENCH trajectory, and a
// 10k-node grid driven through the same sweep path as the CI perf smoke.
// Peak RSS (VmHWM) rides along as a counter so the streaming recorders'
// flat-memory claim is measurable, not just asserted.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "net/topo_gen.h"
#include "sim/scheduler.h"
#include "sim/sharded_engine.h"
#include "util/units.h"

namespace {

using namespace ezflow;

/// Peak resident set size in MB (VmHWM), or 0 when unavailable.
double peak_rss_mb()
{
#ifdef __linux__
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%lf", &kb);
            break;
        }
    }
    std::fclose(status);
    return kb / 1024.0;
#else
    return 0.0;
#endif
}

analysis::ScenarioSpec islands_spec(int islands, int shards, double duration_s)
{
    net::IslandsSpec spec;
    spec.islands = islands;
    spec.cols = 4;
    spec.rows = 4;
    spec.sources = 2;
    spec.duration_s = duration_s;
    spec.max_shards = shards;
    return analysis::ScenarioSpec::islands_spec(spec);
}

std::unique_ptr<analysis::Experiment> make_islands_experiment(int islands, int shards,
                                                             double duration_s, int threads,
                                                             bool streaming)
{
    analysis::ExperimentOptions options;
    options.streaming = streaming;
    analysis::ExperimentFactory factory(islands_spec(islands, shards, duration_s), options);
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/7);
    experiment->network().set_shard_threads(threads);
    return experiment;
}

void BM_IslandsEventRate(benchmark::State& state)
{
    // Aggregate event throughput of 4 convergecast islands. Arg 0 is the
    // shard budget (1 = the serial reference), Arg 1 the worker threads.
    // items = simulated microseconds, so items/s is sim-us per wall
    // second; events_per_s is the aggregate processed-event rate.
    const int shards = static_cast<int>(state.range(0));
    const int threads = static_cast<int>(state.range(1));
    constexpr double kSimSeconds = 3.0;
    std::uint64_t events = 0;
    int shard_count = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto experiment =
            make_islands_experiment(4, shards, kSimSeconds, threads, /*streaming=*/true);
        state.ResumeTiming();
        experiment->run();
        events += experiment->network().total_processed();
        shard_count = experiment->network().shard_count();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSimSeconds * util::kSecond));
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["events"] =
        benchmark::Counter(static_cast<double>(events) / static_cast<double>(state.iterations()));
    state.counters["shards"] = benchmark::Counter(static_cast<double>(shard_count));
    state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
}
// UseRealTime: with worker threads the main thread's CPU clock stops at
// the epoch barrier, so rates must be against wall time.
BENCHMARK(BM_IslandsEventRate)
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardScalingRatio(benchmark::State& state)
{
    // The acceptance measurement: aggregate event rate of the islands
    // workload serial vs 2 shards on 2 workers, as explicit counters
    // (rate_1shard / rate_2shard events per wall second, their ratio,
    // and the cores available — CI containers may be core-limited, in
    // which case the ratio documents that limit rather than the engine).
    using clock = std::chrono::steady_clock;
    constexpr double kSimSeconds = 3.0;
    const auto timed_rate = [&](int shards, int threads) {
        // Best of three: single-shot wall times on shared CI hosts are
        // noisy and the ratio is the quantity under test.
        double best = 0.0;
        for (int attempt = 0; attempt < 3; ++attempt) {
            auto experiment =
                make_islands_experiment(2, shards, kSimSeconds, threads, /*streaming=*/true);
            const auto start = clock::now();
            experiment->run();
            const double seconds = std::chrono::duration<double>(clock::now() - start).count();
            best = std::max(best,
                            static_cast<double>(experiment->network().total_processed()) / seconds);
        }
        return best;
    };
    double rate_1 = 0.0;
    double rate_2 = 0.0;
    for (auto _ : state) {
        rate_1 = timed_rate(1, 1);
        rate_2 = timed_rate(2, 2);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["rate_1shard"] = benchmark::Counter(rate_1);
    state.counters["rate_2shard"] = benchmark::Counter(rate_2);
    state.counters["ratio"] = benchmark::Counter(rate_1 > 0.0 ? rate_2 / rate_1 : 0.0);
    state.counters["cores"] =
        benchmark::Counter(static_cast<double>(std::thread::hardware_concurrency()));
}
BENCHMARK(BM_ShardScalingRatio)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_TenKGridSimulatedSecond(benchmark::State& state)
{
    // Wall cost of one simulated second on a 100x100 grid (10k nodes, 8
    // crossing flows) through the streaming recorders — the CI perf-smoke
    // case. Uniformly connected with no interference-only band, so it
    // stays one shard; what it measures is the per-event cost at scale
    // and the flat recorder memory. BM_ClusterGridEventRate below is the
    // 10k-node case that does cut.
    constexpr double kSimSeconds = 1.0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        state.PauseTiming();
        net::GridSpec grid;
        grid.cols = 100;
        grid.rows = 100;
        grid.cross_flows = 8;
        grid.start_s = 0.0;
        grid.duration_s = kSimSeconds;
        analysis::ExperimentOptions options;
        options.streaming = true;
        analysis::ExperimentFactory factory(analysis::ScenarioSpec::grid_cross(grid), options);
        auto experiment = factory.make(/*seed=*/7);
        state.ResumeTiming();
        experiment->run_until_s(kSimSeconds);
        events += experiment->network().total_processed();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSimSeconds * util::kSecond));
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
}
BENCHMARK(BM_TenKGridSimulatedSecond)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ClusterGridEventRate(benchmark::State& state)
{
    // One simulated second on a 10k-node connected clustered grid (4
    // clusters of 50x50, gaps inside the interference-only band), the
    // workload the boundary-proxy layer exists for: a connected conflict
    // graph that still cuts. Arg 0 is the shard budget (1 = serial
    // reference), Arg 1 the worker threads; ghost mirroring across the
    // gaps rides in the event counts.
    const int shards = static_cast<int>(state.range(0));
    const int threads = static_cast<int>(state.range(1));
    constexpr double kSimSeconds = 1.0;
    std::uint64_t events = 0;
    int shard_count = 0;
    for (auto _ : state) {
        state.PauseTiming();
        net::ClustersSpec clusters;
        clusters.clusters = 4;
        clusters.cols = 50;
        clusters.rows = 50;
        clusters.sources = 2;
        clusters.start_s = 0.0;
        clusters.duration_s = kSimSeconds;
        clusters.max_shards = shards;
        analysis::ExperimentOptions options;
        options.streaming = true;
        analysis::ExperimentFactory factory(analysis::ScenarioSpec::clusters_spec(clusters),
                                            options);
        auto experiment = factory.make(/*seed=*/7);
        experiment->network().set_shard_threads(threads);
        state.ResumeTiming();
        experiment->run_until_s(kSimSeconds);
        events += experiment->network().total_processed();
        shard_count = experiment->network().shard_count();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSimSeconds * util::kSecond));
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["shards"] = benchmark::Counter(static_cast<double>(shard_count));
    state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
}
BENCHMARK(BM_ClusterGridEventRate)
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_EpochDispatch(benchmark::State& state)
{
    // The engine's fixed cost per epoch: 4 shard schedulers on 2 threads
    // with a 1 us lookahead, each holding one trivial self-rescheduling
    // event per epoch, so nearly all the time is dispatch and barrier.
    // ns_per_epoch is wall nanoseconds per epoch.
    using clock = std::chrono::steady_clock;
    constexpr int kShards = 4;
    constexpr util::SimTime kEpochsPerIteration = 1000;
    std::array<sim::Scheduler, kShards> shards;
    std::vector<sim::Scheduler*> pointers;
    for (sim::Scheduler& shard : shards) pointers.push_back(&shard);
    sim::ShardedEngine::Options options;
    options.threads = 2;
    options.lookahead = 1;
    sim::ShardedEngine engine(std::move(pointers), options);
    std::function<void(sim::Scheduler&)> tick = [&tick](sim::Scheduler& shard) {
        shard.schedule_in(1, [&tick, &shard] { tick(shard); });
    };
    for (sim::Scheduler& shard : shards) tick(shard);

    std::chrono::nanoseconds elapsed{0};
    for (auto _ : state) {
        const auto start = clock::now();
        engine.run_until(engine.now() + kEpochsPerIteration);
        elapsed += clock::now() - start;
    }
    const auto epochs = static_cast<double>(engine.epochs());
    state.SetItemsProcessed(static_cast<std::int64_t>(engine.epochs()));
    state.counters["ns_per_epoch"] =
        benchmark::Counter(epochs > 0 ? static_cast<double>(elapsed.count()) / epochs : 0.0);
}
BENCHMARK(BM_EpochDispatch)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

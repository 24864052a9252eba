// Micro-benchmark (google-benchmark) for the paper's analytic model, which
// no ladder workload runs: one step of the Lyapunov random walk behind
// fig12 and table4 (model/walk.h).

#include <benchmark/benchmark.h>

#include "model/walk.h"
#include "util/rng.h"

namespace {

using namespace ezflow;

void BM_ModelStep(benchmark::State& state)
{
    model::RandomWalkModel::Config config;
    config.hops = static_cast<int>(state.range(0));
    model::RandomWalkModel walk(config, util::Rng(7));
    for (auto _ : state) benchmark::DoNotOptimize(walk.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelStep)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();

// Micro-benchmarks (google-benchmark) for churn, which no ladder workload
// has: one route-repair update (which rewrites only the changed flow's
// row, so its cost must not grow with the flow count) and a full
// kill/revive cycle through the fault injector on a running network.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "net/fault_plan.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topo_gen.h"
#include "net/topologies.h"
#include "sim/fault_injector.h"
#include "util/units.h"

namespace {

using namespace ezflow;

/// A routing table with `flows` parallel 6-hop paths over a disjoint
/// node strip each, plus the two alternate paths churn flips between.
struct RepairBed {
    net::RoutingTable routing;
    std::vector<std::vector<net::NodeId>> primary;
    std::vector<std::vector<net::NodeId>> alternate;

    explicit RepairBed(int flows)
    {
        for (int f = 0; f < flows; ++f) {
            const net::NodeId base = f * 8;
            std::vector<net::NodeId> a, b;
            for (net::NodeId i = 0; i < 7; ++i) a.push_back(base + i);
            // Alternate detours through the strip's spare node.
            b = a;
            b[3] = base + 7;
            primary.push_back(a);
            alternate.push_back(b);
            routing.add_flow(f + 1, std::move(a));
        }
    }
};

/// One churn step: update a single flow's path, then look it up.
void BM_RepairIncremental(benchmark::State& state)
{
    const int flows = static_cast<int>(state.range(0));
    RepairBed bed(flows);
    int step = 0;
    for (auto _ : state) {
        const int flow = step % flows + 1;
        const auto& path =
            (step / flows) % 2 ? bed.primary[flow - 1] : bed.alternate[flow - 1];
        bed.routing.update_flow(flow, path);
        benchmark::DoNotOptimize(bed.routing.next_hop_or_none(flow, path[2]));
        ++step;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepairIncremental)->Arg(64)->Arg(512);

/// The injector's end of the same work: a node death and revival on a
/// convergecast grid mid-run, including teardown, per-flow BFS repair
/// and restoration. Measures the whole kill/revive cycle.
void BM_KillReviveCycle(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        net::GridSpec grid;
        grid.cols = 7;
        grid.rows = 7;
        grid.sources = 4;
        grid.duration_s = 60.0;
        net::Scenario scenario = net::make_grid_convergecast(grid, /*seed=*/3);
        net::FaultPlan plan;
        plan.node_down(6.0, 1).node_up(6.5, 1);
        sim::FaultInjector injector(*scenario.network, plan);
        injector.arm();
        scenario.network->run_until(util::from_seconds(5.9));
        state.ResumeTiming();
        scenario.network->run_until(util::from_seconds(7.0));
        benchmark::DoNotOptimize(injector.stats().flows_restored);
    }
}
BENCHMARK(BM_KillReviveCycle)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

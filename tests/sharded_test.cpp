// Space-parallel sharding tier: the partitioner's conservative guarantee
// (no conflict edge ever crosses a shard boundary) on random layouts, the
// ShardedEngine's one-epoch-per-run_until contract, and end-to-end
// byte-identity of the sharded engine against the serial reference — same
// fingerprints and the same figure JSON whatever the shard budget or
// thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/sweep.h"
#include "cli/figures.h"
#include "cli/registry.h"
#include "experiment_fingerprint.h"
#include "net/network.h"
#include "net/shard_plan.h"
#include "net/topo_gen.h"
#include "phy/frame.h"
#include "sim/scheduler.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace ezflow {
namespace {

using testutil::experiment_fingerprint;

// ---------------------------------------------- partitioner property test

TEST(ShardPlanner, NoConflictEdgeCrossesShardsOn200RandomLayouts)
{
    // Random scatters over a field wide enough to fragment into clusters:
    // whatever the layout, no two nodes within the conflict radius may
    // land in different shards, shard ids must be dense and loads
    // balanced. The second
    // pass widens interference past carrier sense, so interference-only
    // edges must stay inside a shard too.
    for (const double interference_m : {0.0, 700.0}) {
        phy::PhyParams phy;
        if (interference_m > 0.0) phy.interference_range_m = interference_m;
        const double radius = phy.conflict_radius_m();
        util::Rng rng(0xA11CE5ULL);
        int multi_shard_layouts = 0;
        for (int trial = 0; trial < 200; ++trial) {
            const int nodes = rng.uniform_int(2, 60);
            const double width = rng.uniform_real(800.0, 12000.0);
            const double height = rng.uniform_real(800.0, 12000.0);
            std::vector<phy::Position> positions;
            positions.reserve(static_cast<std::size_t>(nodes));
            for (int i = 0; i < nodes; ++i)
                positions.push_back(
                    {rng.uniform_real(0.0, width), rng.uniform_real(0.0, height)});
            // A budget of 1 short-circuits to the empty serial-sentinel
            // plan, so the property is only meaningful from 2 up.
            const int max_shards = rng.uniform_int(2, 8);
            EXPECT_TRUE(net::plan_shards(positions, phy, 1).empty());

            const net::ShardPlan plan = net::plan_shards(positions, phy, max_shards);
            ASSERT_EQ(plan.shard_of_node.size(), positions.size());
            ASSERT_GE(plan.shard_count, 1);
            ASSERT_LE(plan.shard_count, max_shards);
            std::vector<bool> seen(static_cast<std::size_t>(plan.shard_count), false);
            for (const int shard : plan.shard_of_node) {
                ASSERT_GE(shard, 0);
                ASSERT_LT(shard, plan.shard_count);
                seen[static_cast<std::size_t>(shard)] = true;
            }
            for (const bool used : seen) ASSERT_TRUE(used) << "shard ids must be dense";

            // Conflict components, brute force: the planner's atomic units.
            std::vector<std::size_t> parent(positions.size());
            for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
            const auto find = [&parent](std::size_t x) {
                while (parent[x] != x) x = parent[x] = parent[parent[x]];
                return x;
            };
            for (std::size_t a = 0; a < positions.size(); ++a) {
                for (std::size_t b = a + 1; b < positions.size(); ++b) {
                    if (phy::distance(positions[a], positions[b]) <= radius) {
                        ASSERT_EQ(plan.shard_of_node[a], plan.shard_of_node[b])
                            << "radius " << radius << ", trial " << trial << ": conflict edge "
                            << a << "-" << b << " crosses shards";
                        parent[find(a)] = find(b);
                    }
                }
            }

            // Balance: greedy packing keeps the per-shard loads within one
            // largest component of each other.
            std::vector<int> component_size(positions.size(), 0);
            int largest_component = 0;
            for (std::size_t i = 0; i < positions.size(); ++i)
                largest_component = std::max(largest_component, ++component_size[find(i)]);
            std::vector<int> load(static_cast<std::size_t>(plan.shard_count), 0);
            for (const int shard : plan.shard_of_node) ++load[static_cast<std::size_t>(shard)];
            const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
            EXPECT_LE(*hi - *lo, largest_component) << "radius " << radius << ", trial " << trial;

            // Deterministic: replanning the same layout yields the same plan.
            const net::ShardPlan replan = net::plan_shards(positions, phy, max_shards);
            ASSERT_EQ(replan.shard_count, plan.shard_count);
            ASSERT_EQ(replan.shard_of_node, plan.shard_of_node);
            if (plan.shard_count > 1) ++multi_shard_layouts;
        }
        // The field sizes above fragment often; the property must have
        // been exercised on genuinely multi-shard layouts, not vacuously.
        EXPECT_GT(multi_shard_layouts, 20) << "radius " << radius;
    }
}

TEST(ShardPlanner, ConnectedGridCollapsesToOneShard)
{
    const net::Topology grid = net::make_grid_topology(5, 5, 200.0, 250.0);
    const phy::PhyParams phy;
    const net::ShardPlan plan = net::plan_shards(grid.positions, phy, 8);
    EXPECT_EQ(plan.shard_count, 1);
    EXPECT_EQ(plan.shard_of_node,
              std::vector<int>(static_cast<std::size_t>(grid.node_count()), 0));
}

TEST(ShardPlanner, SeparatedIslandsSplitUpToTheBudget)
{
    // Four 2-node islands 2 km apart: 4 components. The planner honors the
    // budget: 4 shards when allowed, packed down to 2 when capped.
    std::vector<phy::Position> positions;
    for (int island = 0; island < 4; ++island) {
        const double x = island * 2000.0;
        positions.push_back({x, 0.0});
        positions.push_back({x + 100.0, 0.0});
    }
    const phy::PhyParams phy;
    EXPECT_EQ(net::plan_shards(positions, phy, 8).shard_count, 4);
    const net::ShardPlan capped = net::plan_shards(positions, phy, 2);
    EXPECT_EQ(capped.shard_count, 2);
    for (std::size_t i = 0; i < positions.size(); i += 2)
        EXPECT_EQ(capped.shard_of_node[i], capped.shard_of_node[i + 1]);
}

TEST(ShardPlanner, ClusterGridCollapsesToOneShard)
{
    // Grids joined only across an interference-only gap form one
    // conflict component, so the planner keeps them in one shard even
    // when the budget allows one per cluster.
    net::ClustersSpec spec;
    spec.duration_s = 1.0;
    spec.max_shards = 4;
    const net::Scenario scenario = net::make_cluster_grid(spec, /*seed=*/1);
    const net::ShardPlan& plan = scenario.network->config().shard_plan;
    EXPECT_EQ(plan.shard_count, 1);
    EXPECT_EQ(plan.shard_of_node,
              std::vector<int>(static_cast<std::size_t>(scenario.network->node_count()), 0));
    EXPECT_EQ(scenario.network->shard_count(), 1);
}

// ------------------------------------------------ ShardedEngine contract

TEST(ShardedEngine, EachRunUntilIsOneEpochThatLeavesEveryShardAtTheTarget)
{
    std::array<sim::Scheduler, 3> shards;
    sim::ShardedEngine engine({&shards[0], &shards[1], &shards[2]}, /*threads=*/1);
    int fired = 0;
    shards[1].schedule_at(40, [&] { ++fired; });  // shards 0 and 2 stay empty
    std::uint64_t epochs = 0;
    for (const util::SimTime t : {100, 250, 1000}) {
        engine.run_until(t);
        EXPECT_EQ(engine.epochs(), ++epochs) << "t=" << t;
        EXPECT_EQ(engine.now(), t);
        for (const sim::Scheduler& shard : shards) EXPECT_EQ(shard.now(), t);
    }
    EXPECT_EQ(fired, 1);
    engine.run_until(1000);  // not ahead of now(): no epoch
    EXPECT_EQ(engine.epochs(), epochs);
    EXPECT_EQ(engine.handoffs(), 0u);
}

// A synthetic 4-shard workload for the threaded engine: every shard runs
// its own self-rescheduling chain with pseudo-random gaps and logs each
// step. Shards share nothing, so each shard's log must be the same
// whatever the thread count and whichever thread runs it.
constexpr std::size_t kChainShards = 4;

class ChainWorkload {
public:
    using Trace = std::vector<std::pair<util::SimTime, std::uint64_t>>;  ///< (time, state)

    explicit ChainWorkload(int threads)
        : engine_({&shards_[0], &shards_[1], &shards_[2], &shards_[3]}, threads)
    {
        for (std::size_t s = 0; s < kChainShards; ++s)
            schedule_step(s, static_cast<util::SimTime>(s), 0x9E3779B97F4A7C15ULL * (s + 1));
    }

    sim::ShardedEngine& engine() { return engine_; }
    const Trace& trace(std::size_t s) const { return traces_[s]; }

private:
    void schedule_step(std::size_t s, util::SimTime at, std::uint64_t state)
    {
        shards_[s].schedule_at(at, [this, s, state] { step(s, state); });
    }

    void step(std::size_t s, std::uint64_t state)
    {
        const util::SimTime now = shards_[s].now();
        traces_[s].emplace_back(now, state);
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto draw = static_cast<util::SimTime>(state >> 33);
        // Now and then two events land on one instant, so same-instant
        // order is part of the log.
        if (draw % 5 == 0) shards_[s].schedule_at(now + 2, [this, s] { log_extra(s); });
        schedule_step(s, now + 1 + draw % 4, state);
    }

    void log_extra(std::size_t s) { traces_[s].emplace_back(shards_[s].now(), 0); }

    std::array<sim::Scheduler, kChainShards> shards_;
    std::array<Trace, kChainShards> traces_;
    sim::ShardedEngine engine_;
};

TEST(ShardedEngine, ThreadedEpochsReproduceTheSerialEventOrder)
{
    // 1,000 run_until() calls, each fanning the shards out afresh.
    constexpr int kEpochs = 1000;
    constexpr util::SimTime kStep = 20;
    const auto run = [](ChainWorkload& workload) {
        for (int epoch = 1; epoch <= kEpochs; ++epoch) workload.engine().run_until(epoch * kStep);
    };
    ChainWorkload serial(1);
    run(serial);
    ASSERT_EQ(serial.engine().epochs(), static_cast<std::uint64_t>(kEpochs));
    for (std::size_t s = 0; s < kChainShards; ++s) ASSERT_GT(serial.trace(s).size(), 5000u);
    for (const int threads : {2, 4}) {
        ChainWorkload threaded(threads);
        run(threaded);
        EXPECT_EQ(threaded.engine().epochs(), serial.engine().epochs()) << threads << " threads";
        for (std::size_t s = 0; s < kChainShards; ++s)
            EXPECT_EQ(threaded.trace(s), serial.trace(s)) << "shard " << s << ", " << threads
                                                          << " threads";
    }
}

TEST(ShardedEngine, LowestShardExceptionSurfacesWhateverTheInterleaving)
{
    // On 2 threads, shards 1 and 2 may run on either thread, in either
    // order. Both throw in the same epoch; shard 1's exception must win
    // every time, and the engine must stay usable.
    for (int rep = 0; rep < 50; ++rep) {
        std::array<sim::Scheduler, 4> shards;
        sim::ShardedEngine engine({&shards[0], &shards[1], &shards[2], &shards[3]},
                                  /*threads=*/2);
        shards[1].schedule_at(10, [] { throw std::logic_error("shard 1"); });
        shards[2].schedule_at(10, [] { throw std::runtime_error("shard 2"); });
        EXPECT_THROW(engine.run_until(300), std::logic_error) << "rep " << rep;
        EXPECT_EQ(engine.now(), 0);
        EXPECT_EQ(engine.epochs(), 0u);
        // A later run_until() completes the failed epoch and carries on.
        engine.run_until(300);
        EXPECT_EQ(engine.now(), 300);
        EXPECT_EQ(engine.epochs(), 1u);
    }
}

// --------------------------------------- end-to-end shard byte-identity

analysis::ScenarioSpec islands_scenario(int shards)
{
    net::IslandsSpec islands;
    islands.islands = 4;
    islands.cols = 3;
    islands.rows = 3;
    islands.sources = 2;
    islands.duration_s = 4.0;
    islands.max_shards = shards;
    return analysis::ScenarioSpec::islands_spec(islands);
}

TEST(ShardedRun, IslandsFingerprintMatchesSerialReference)
{
    const auto run_with_shards = [](int shards, int* shard_count) {
        analysis::ExperimentFactory factory(islands_scenario(shards),
                                            analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
        experiment->run();
        *shard_count = experiment->network().shard_count();
        // Event totals legitimately differ across shard counts (one
        // tracer-sweep chain per shard), so compare dynamics only.
        return experiment_fingerprint(*experiment, /*include_processed=*/false);
    };
    int serial_shards = 0;
    int parallel_shards = 0;
    const auto serial = run_with_shards(1, &serial_shards);
    const auto sharded = run_with_shards(4, &parallel_shards);
    EXPECT_EQ(serial_shards, 1);
    EXPECT_EQ(parallel_shards, 4) << "four separated islands must actually shard";
    EXPECT_EQ(serial, sharded);
}

TEST(ShardedRun, IslandsFigureJsonIsByteIdenticalAcrossShardsAndThreads)
{
    cli::register_builtin_figures();
    const cli::FigureSpec* spec = cli::FigureRegistry::instance().find("islands");
    ASSERT_NE(spec, nullptr);
    const auto run = [spec](int shards, int threads) {
        cli::FigureContext ctx;
        ctx.spec = spec;
        ctx.scale = 0.1;
        ctx.seed = 7;
        ctx.seeds = 2;
        ctx.threads = threads;
        ctx.shards = shards;
        return spec->run(ctx).to_json().dump();
    };
    const std::string serial = run(1, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, run(4, 1));
    EXPECT_EQ(serial, run(4, 4));
}

TEST(ShardedRun, ThreadedIslandsMatchSerialWithoutManualRouteCompile)
{
    // Shard workers share the routing table and nothing here prepares it
    // before the run: lookups must be pure reads. (A table that compiled
    // lazily on the first lookup raced between the two workers and made
    // some runs diverge from the serial reference; the TSan CI job flags
    // such a race itself.)
    const auto fingerprint = [](int shards, int threads) {
        net::IslandsSpec islands;
        islands.cols = 8;
        islands.rows = 8;
        islands.start_s = 0.0;
        islands.duration_s = 1.0;
        islands.max_shards = shards;
        analysis::ExperimentFactory factory(analysis::ScenarioSpec::islands_spec(islands),
                                            analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
        experiment->network().set_shard_threads(threads);
        experiment->run();
        EXPECT_EQ(experiment->network().shard_count(), shards);
        return experiment_fingerprint(*experiment, /*include_processed=*/false);
    };
    const auto serial = fingerprint(1, 1);
    for (int rep = 0; rep < 12; ++rep) EXPECT_EQ(fingerprint(4, 2), serial) << "rep " << rep;
}

TEST(ShardedRun, SweepThreadCountBoundsTheShardThreads)
{
    // SweepRunner(1) must leave a sharded network single-threaded too, so
    // `ezflow run islands --threads=1 --shards=4` starts no thread. The
    // kept experiment carries the setting into a further run_until_s.
    analysis::SweepConfig config;
    config.seeds = {3};
    config.keep_first = true;
    const analysis::SweepCell cell{
        analysis::ExperimentFactory(islands_scenario(4), analysis::ExperimentOptions{}),
        analysis::summarize_windows({})};
    analysis::SweepResult sweep = analysis::SweepRunner(1).run(cell, config);
    analysis::Experiment& experiment = *sweep.first;
    net::Network& network = experiment.network();
    ASSERT_EQ(network.shard_count(), 4);
    std::array<std::thread::id, 4> ran_on{};
    for (int s = 0; s < network.shard_count(); ++s) {
        sim::Scheduler& scheduler = network.shard_scheduler(s);
        scheduler.schedule_at(scheduler.now() + util::kMillisecond, [&ran_on, s] {
            ran_on[static_cast<std::size_t>(s)] = std::this_thread::get_id();
        });
    }
    experiment.run_until_s(util::to_seconds(network.now()) + 0.01);
    for (std::size_t s = 0; s < ran_on.size(); ++s)
        EXPECT_EQ(ran_on[s], std::this_thread::get_id()) << "shard " << s;
}

TEST(ShardedRun, ClustersUnderAShardBudgetMatchTheSerialFingerprint)
{
    // The clusters interfere across their gaps, so a 4-shard budget still
    // plans one shard, and the run builds and runs exactly as the 1-shard
    // reference does.
    const auto run_with_shards = [](int shards, int* shard_count) {
        net::ClustersSpec clusters;
        clusters.duration_s = 4.0;
        clusters.max_shards = shards;
        analysis::ScenarioSpec spec = analysis::ScenarioSpec::clusters_spec(clusters);
        analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
        experiment->run();
        *shard_count = experiment->network().shard_count();
        return experiment_fingerprint(*experiment, /*include_processed=*/false);
    };
    int serial_shards = 0;
    int budget_shards = 0;
    const auto serial = run_with_shards(1, &serial_shards);
    const auto budget = run_with_shards(4, &budget_shards);
    EXPECT_EQ(serial_shards, 1);
    EXPECT_EQ(budget_shards, 1);
    EXPECT_EQ(serial, budget);
}

TEST(ShardedRun, ConnectedFiguresIgnoreTheShardBudget)
{
    // grid_cross / grid_gateway are connected: the planner must collapse
    // them to one shard and the JSON must not move under --shards.
    cli::register_builtin_figures();
    for (const char* name : {"grid_cross", "grid_gateway"}) {
        const cli::FigureSpec* spec = cli::FigureRegistry::instance().find(name);
        ASSERT_NE(spec, nullptr) << name;
        const auto run = [spec](int shards) {
            cli::FigureContext ctx;
            ctx.spec = spec;
            ctx.scale = 0.05;
            ctx.seed = 5;
            ctx.seeds = 2;
            ctx.threads = 1;
            ctx.shards = shards;
            ctx.extra = {{"cols", "4"}, {"rows", "4"}, {"duration", "4"}};
            return spec->run(ctx).to_json().dump();
        };
        EXPECT_EQ(run(1), run(4)) << name;
    }
}

// -------------------------------------------------- streaming recorders

TEST(StreamingRecorders, SameDeliveriesAndDelaysWithFlatMemory)
{
    const auto run = [](bool streaming) {
        analysis::ExperimentOptions options;
        options.streaming = streaming;
        analysis::ExperimentFactory factory(islands_scenario(4), options);
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/9);
        experiment->run();
        return experiment;
    };
    const auto stored = run(false);
    const auto streamed = run(true);

    // Streaming changes bookkeeping only: identical dynamics...
    EXPECT_EQ(experiment_fingerprint(*stored, /*include_processed=*/false),
              experiment_fingerprint(*streamed, /*include_processed=*/false));
    std::uint64_t packets = 0;
    for (const net::FlowPlan& flow : streamed->scenario().flows) {
        ASSERT_TRUE(streamed->sink().has_flow(flow.flow_id));
        const auto& a = stored->sink().flow(flow.flow_id);
        const auto& b = streamed->sink().flow(flow.flow_id);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.delay_us.count(), b.delay_us.count());
        EXPECT_EQ(a.delay_us.mean(), b.delay_us.mean());
        EXPECT_EQ(a.delay_us.max(), b.delay_us.max());
        packets += b.packets;
    }
    EXPECT_GT(packets, 0u);

    // ...with O(nodes + flows) state: no per-event series anywhere.
    EXPECT_EQ(streamed->sink().stored_samples(), 0u);
    EXPECT_EQ(streamed->buffers().stored_samples(), 0u);
    EXPECT_EQ(streamed->cw_tracer().stored_samples(), 0u);
    EXPECT_GT(stored->sink().stored_samples(), 0u);
    EXPECT_GT(stored->buffers().stored_samples(), 0u);
}

}  // namespace
}  // namespace ezflow

// Space-parallel sharding tier: the partitioner's conservative guarantee
// (no conflict edge ever crosses a shard boundary) on random layouts, the
// ShardedEngine's epoch/handoff contract, and end-to-end byte-identity of
// the sharded engine against the serial reference — same fingerprints and
// the same figure JSON whatever the shard budget or thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "cli/figures.h"
#include "cli/registry.h"
#include "experiment_fingerprint.h"
#include "net/network.h"
#include "net/shard_plan.h"
#include "net/topo_gen.h"
#include "phy/frame.h"
#include "phy/models.h"
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
    // land in different shards, and shard ids must be dense.
    const phy::PhyParams phy;
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
            positions.push_back({rng.uniform_real(0.0, width), rng.uniform_real(0.0, height)});
        // A budget of 1 short-circuits to the empty serial-sentinel plan,
        // so the property is only meaningful from 2 up.
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

        for (std::size_t a = 0; a < positions.size(); ++a) {
            for (std::size_t b = a + 1; b < positions.size(); ++b) {
                if (phy::distance(positions[a], positions[b]) <= radius) {
                    ASSERT_EQ(plan.shard_of_node[a], plan.shard_of_node[b])
                        << "trial " << trial << ": conflict edge " << a << "-" << b
                        << " crosses shards";
                }
            }
        }

        // Deterministic: replanning the same layout yields the same plan.
        const net::ShardPlan replan = net::plan_shards(positions, phy, max_shards);
        ASSERT_EQ(replan.shard_count, plan.shard_count);
        ASSERT_EQ(replan.shard_of_node, plan.shard_of_node);
        if (plan.shard_count > 1) ++multi_shard_layouts;
    }
    // The field sizes above fragment often; the property must have been
    // exercised on genuinely multi-shard layouts, not vacuously.
    EXPECT_GT(multi_shard_layouts, 20);
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

// ----------------------------------- connected-cut partitioner properties

TEST(ShardPlanner, ConnectedCutPropertiesOn200RandomLayouts)
{
    // Widened interference opens an interference-only band (550, 700]:
    // the planner may cut those edges, but it must never cut a
    // sense/delivery edge, must register both endpoints of every cut
    // edge for ghost mirroring, must keep the greedy balance bound, and
    // must stay deterministic.
    phy::PhyParams phy;
    phy.interference_range_m = 700.0;
    const double radius = phy.conflict_radius_m();
    const double radius_hard = std::max(phy.tx_range_m, phy.cs_range_m);
    util::Rng rng(0xB0B57ULL);
    int cut_layouts = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const int nodes = rng.uniform_int(2, 60);
        const double width = rng.uniform_real(800.0, 9000.0);
        const double height = rng.uniform_real(800.0, 9000.0);
        std::vector<phy::Position> positions;
        positions.reserve(static_cast<std::size_t>(nodes));
        for (int i = 0; i < nodes; ++i)
            positions.push_back({rng.uniform_real(0.0, width), rng.uniform_real(0.0, height)});
        const int max_shards = rng.uniform_int(2, 8);
        const net::ShardPlan plan = net::plan_shards(positions, phy, max_shards);
        ASSERT_EQ(plan.shard_of_node.size(), positions.size());
        ASSERT_GE(plan.shard_count, 1);
        ASSERT_LE(plan.shard_count, max_shards);
        if (plan.connected_cut) {
            ASSERT_EQ(plan.boundary_nodes.size(), static_cast<std::size_t>(plan.shard_count));
            ASSERT_EQ(plan.ghost_targets_of_node.size(), positions.size());
        } else {
            ASSERT_TRUE(plan.boundary_nodes.empty());
            ASSERT_TRUE(plan.ghost_targets_of_node.empty());
        }

        bool saw_cut = false;
        for (std::size_t a = 0; a < positions.size(); ++a) {
            for (std::size_t b = a + 1; b < positions.size(); ++b) {
                const double d = phy::distance(positions[a], positions[b]);
                if (d > radius) continue;
                const int sa = plan.shard_of_node[a];
                const int sb = plan.shard_of_node[b];
                if (d <= radius_hard) {
                    ASSERT_EQ(sa, sb) << "trial " << trial << ": sense/delivery edge " << a
                                      << "-" << b << " crosses shards";
                } else if (sa != sb) {
                    // A cut interference-only edge: both endpoints must be
                    // wired for the ghost-mirror layer, in both directions.
                    saw_cut = true;
                    ASSERT_TRUE(plan.connected_cut);
                    const auto& ba = plan.boundary_nodes[static_cast<std::size_t>(sa)];
                    const auto& bb = plan.boundary_nodes[static_cast<std::size_t>(sb)];
                    ASSERT_TRUE(std::binary_search(ba.begin(), ba.end(), static_cast<int>(a)));
                    ASSERT_TRUE(std::binary_search(bb.begin(), bb.end(), static_cast<int>(b)));
                    const auto& ga = plan.ghost_targets_of_node[a];
                    const auto& gb = plan.ghost_targets_of_node[b];
                    ASSERT_TRUE(std::binary_search(ga.begin(), ga.end(), sb));
                    ASSERT_TRUE(std::binary_search(gb.begin(), gb.end(), sa));
                }
            }
        }
        EXPECT_EQ(plan.connected_cut, saw_cut) << "trial " << trial;

        // Balance: neither greedy packing nor the KL refinement may
        // spread the per-shard loads further apart than one largest
        // sense/delivery component (the planner's atomic unit).
        if (plan.shard_count > 1) {
            std::vector<std::size_t> parent(positions.size());
            for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
            const auto find = [&parent](std::size_t x) {
                while (parent[x] != x) x = parent[x] = parent[parent[x]];
                return x;
            };
            for (std::size_t a = 0; a < positions.size(); ++a)
                for (std::size_t b = a + 1; b < positions.size(); ++b)
                    if (phy::distance(positions[a], positions[b]) <= radius_hard)
                        parent[find(a)] = find(b);
            std::vector<int> comp_size(positions.size(), 0);
            int largest_unit = 0;
            for (std::size_t i = 0; i < positions.size(); ++i)
                largest_unit = std::max(largest_unit, ++comp_size[find(i)]);
            std::vector<int> load(static_cast<std::size_t>(plan.shard_count), 0);
            for (const int shard : plan.shard_of_node) ++load[static_cast<std::size_t>(shard)];
            const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
            EXPECT_LE(*hi - *lo, largest_unit) << "trial " << trial;
        }

        // Deterministic: replanning reproduces the whole wiring.
        const net::ShardPlan replan = net::plan_shards(positions, phy, max_shards);
        ASSERT_EQ(replan.shard_of_node, plan.shard_of_node);
        ASSERT_EQ(replan.connected_cut, plan.connected_cut);
        ASSERT_EQ(replan.boundary_nodes, plan.boundary_nodes);
        ASSERT_EQ(replan.ghost_targets_of_node, plan.ghost_targets_of_node);
        if (plan.connected_cut) ++cut_layouts;
    }
    // The band is narrow, but 200 layouts must exercise real cuts, not
    // pass vacuously.
    EXPECT_GT(cut_layouts, 10);
}

TEST(ShardPlanner, ClusterGridCutsOneShardPerCluster)
{
    // The canned connected-cut topology: 4 grids linked only across an
    // interference-only gap must split one shard per cluster, with every
    // shard carrying boundary nodes on the facing rim columns.
    net::ClustersSpec spec;
    spec.duration_s = 1.0;
    spec.max_shards = 4;
    const net::Scenario scenario = net::make_cluster_grid(spec, /*seed=*/1);
    const net::ShardPlan& plan = scenario.network->config().shard_plan;
    EXPECT_TRUE(plan.connected_cut);
    ASSERT_EQ(plan.shard_count, 4);
    EXPECT_EQ(scenario.network->shard_count(), 4);
    const int per_cluster = spec.cols * spec.rows;
    for (int id = 0; id < scenario.network->node_count(); ++id)
        EXPECT_EQ(plan.shard_of_node[static_cast<std::size_t>(id)], id / per_cluster);
    for (const auto& boundary : plan.boundary_nodes) {
        EXPECT_FALSE(boundary.empty());
        EXPECT_TRUE(std::is_sorted(boundary.begin(), boundary.end()));
    }
    // Ghost targets only ever name the adjacent cluster(s): the gap plus
    // one full cluster width is far beyond interference range.
    for (int id = 0; id < scenario.network->node_count(); ++id)
        for (const int target : plan.ghost_targets_of_node[static_cast<std::size_t>(id)])
            EXPECT_EQ(std::abs(target - id / per_cluster), 1);
}

// ------------------------------------------------ ShardedEngine contract

TEST(ShardedEngine, DeliversHandoffsAtTheBarrierInTimestampOrder)
{
    sim::Scheduler a;
    sim::Scheduler b;
    sim::ShardedEngine::Options options;
    options.threads = 1;
    options.lookahead = 100;
    sim::ShardedEngine engine({&a, &b}, options);

    std::vector<int> delivered;
    std::vector<util::SimTime> delivered_at;
    // Mid-epoch, shard 0 posts two handoffs into shard 1, timestamps
    // descending — the barrier must still deliver them time-sorted.
    a.schedule_at(10, [&] {
        engine.post(0, 1, 150, [&] {
            delivered.push_back(2);
            delivered_at.push_back(b.now());
        });
        engine.post(0, 1, 120, [&] {
            delivered.push_back(1);
            delivered_at.push_back(b.now());
        });
    });
    engine.run_until(300);
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered, (std::vector<int>{1, 2}));
    EXPECT_EQ(delivered_at, (std::vector<util::SimTime>{120, 150}));
    EXPECT_EQ(engine.handoffs(), 2u);
    EXPECT_EQ(engine.epochs(), 3u);  // 300 / lookahead(100)
    EXPECT_EQ(engine.now(), 300);
}

TEST(ShardedEngine, RejectsHandoffsBehindTheEpochHorizon)
{
    sim::Scheduler a;
    sim::Scheduler b;
    sim::ShardedEngine::Options options;
    options.threads = 1;
    options.lookahead = 100;
    sim::ShardedEngine engine({&a, &b}, options);
    bool threw = false;
    a.schedule_at(10, [&] {
        // The first epoch's horizon is 100; a handoff stamped inside the
        // epoch would have to rewind shard 1.
        try {
            engine.post(0, 1, 50, [] {});
        } catch (const std::logic_error&) {
            threw = true;
        }
    });
    engine.run_until(200);
    EXPECT_TRUE(threw);
    EXPECT_EQ(engine.handoffs(), 0u);
    EXPECT_THROW(engine.post(0, 2, 1000, [] {}), std::invalid_argument);
}

// A synthetic 4-shard workload for the worker team: every shard runs a
// self-rescheduling chain with pseudo-random gaps, and about one chain
// event in three posts a handoff to each other shard, stamped one
// lookahead ahead. Several shards post into the same target at equal
// timestamps, so the per-shard traces only match across thread counts if
// the barrier's (timestamp, shard, seq) delivery order holds.
constexpr std::size_t kChainShards = 4;
constexpr util::SimTime kChainLookahead = 2;

class ChainWorkload {
public:
    using Trace = std::vector<std::pair<util::SimTime, int>>;  ///< (time, origin)

    explicit ChainWorkload(int threads)
        : engine_({&shards_[0], &shards_[1], &shards_[2], &shards_[3]}, options(threads))
    {
        for (std::size_t s = 0; s < kChainShards; ++s)
            schedule_step(s, static_cast<util::SimTime>(s), 0x9E3779B97F4A7C15ULL * (s + 1));
    }

    sim::ShardedEngine& engine() { return engine_; }
    const Trace& trace(std::size_t s) const { return traces_[s]; }

private:
    static sim::ShardedEngine::Options options(int threads)
    {
        sim::ShardedEngine::Options options;
        options.threads = threads;
        options.lookahead = kChainLookahead;
        return options;
    }

    void schedule_step(std::size_t s, util::SimTime at, std::uint64_t state)
    {
        shards_[s].schedule_at(at, [this, s, state] { step(s, state); });
    }

    void step(std::size_t s, std::uint64_t state)
    {
        const util::SimTime now = shards_[s].now();
        traces_[s].emplace_back(now, static_cast<int>(s));
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto draw = static_cast<util::SimTime>(state >> 33);
        if (draw % 3 == 0) {
            for (std::size_t to = 0; to < kChainShards; ++to) {
                if (to == s) continue;
                engine_.post(static_cast<int>(s), static_cast<int>(to), now + kChainLookahead,
                             [this, s, to] {
                                 traces_[to].emplace_back(shards_[to].now(),
                                                          static_cast<int>(kChainShards + s));
                             });
            }
        }
        schedule_step(s, now + 1 + draw % 4, state);
    }

    std::array<sim::Scheduler, kChainShards> shards_;
    std::array<Trace, kChainShards> traces_;
    sim::ShardedEngine engine_;
};

TEST(ShardedEngine, WorkerTeamReproducesTheSerialEventOrder)
{
    // 10k epochs, split over two run_until() calls so the team also
    // persists across calls.
    constexpr util::SimTime kEnd = 10000 * kChainLookahead;
    const auto run = [](ChainWorkload& workload) {
        workload.engine().run_until(kEnd / 2);
        workload.engine().run_until(kEnd);
    };
    ChainWorkload serial(1);
    run(serial);
    ASSERT_EQ(serial.engine().epochs(), 10000u);
    ASSERT_GT(serial.engine().handoffs(), 10000u);
    for (const int threads : {2, 4}) {
        ChainWorkload team(threads);
        run(team);
        EXPECT_EQ(team.engine().epochs(), serial.engine().epochs()) << threads << " threads";
        EXPECT_EQ(team.engine().handoffs(), serial.engine().handoffs()) << threads << " threads";
        for (std::size_t s = 0; s < kChainShards; ++s)
            EXPECT_EQ(team.trace(s), serial.trace(s)) << "shard " << s << ", " << threads
                                                      << " threads";
    }
}

TEST(ShardedEngine, LowestShardExceptionSurfacesWhateverTheInterleaving)
{
    // On 2 threads, shard 1 runs on the worker and shard 2 on the caller.
    // Both throw in the first epoch; shard 1's lookahead violation must
    // win every time, and the team must survive it.
    for (int rep = 0; rep < 50; ++rep) {
        std::array<sim::Scheduler, 4> shards;
        sim::ShardedEngine::Options options;
        options.threads = 2;
        options.lookahead = 100;
        auto engine = std::make_unique<sim::ShardedEngine>(
            std::vector<sim::Scheduler*>{&shards[0], &shards[1], &shards[2], &shards[3]},
            options);
        shards[1].schedule_at(10, [&engine] { engine->post(1, 0, 50, [] {}); });
        shards[2].schedule_at(10, [] { throw std::runtime_error("shard 2"); });
        EXPECT_THROW(engine->run_until(300), std::logic_error) << "rep " << rep;
        EXPECT_EQ(engine->now(), 0);
        // A later run_until() completes the failed epoch and carries on.
        engine->run_until(300);
        EXPECT_EQ(engine->now(), 300);
        EXPECT_EQ(engine->threads_started(), 1);
        engine.reset();  // joins the parked worker
    }
}

TEST(ShardedEngine, StartsWorkerThreadsOnlyForAMultiMemberTeam)
{
    const auto threads_started = [](int threads, bool run) {
        std::array<sim::Scheduler, 4> shards;
        sim::ShardedEngine::Options options;
        options.threads = threads;
        options.lookahead = 10;
        sim::ShardedEngine engine({&shards[0], &shards[1], &shards[2], &shards[3]}, options);
        if (run) engine.run_until(1000);
        return engine.threads_started();
    };
    EXPECT_EQ(threads_started(4, /*run=*/false), 0) << "threads start lazily";
    EXPECT_EQ(threads_started(1, /*run=*/true), 0) << "the caller is the whole team";
    EXPECT_EQ(threads_started(2, /*run=*/true), 1);
    EXPECT_EQ(threads_started(8, /*run=*/true), 3) << "the team never outnumbers the shards";
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

analysis::ScenarioSpec clusters_scenario(int shards)
{
    net::ClustersSpec clusters;
    clusters.duration_s = 4.0;
    clusters.max_shards = shards;
    return analysis::ScenarioSpec::clusters_spec(clusters);
}

TEST(ShardedRun, ClustersGhostMirroringMatchesSerialReference)
{
    // The connected-cut equivalence gate: a 4-cluster grid coupled only
    // by cross-gap interference must produce identical radio/MAC/delivery
    // dynamics whether it runs serial or cut into 4 shards with ghost
    // mirroring — and the mirror layer must actually carry traffic, or
    // the comparison is vacuous.
    const auto run_with_shards = [](int shards, int* shard_count, std::uint64_t* handoffs) {
        analysis::ExperimentFactory factory(clusters_scenario(shards),
                                            analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
        experiment->run();
        *shard_count = experiment->network().shard_count();
        sim::ShardedEngine* engine = experiment->network().sharded_engine();
        *handoffs = engine != nullptr ? engine->handoffs() : 0;
        return experiment_fingerprint(*experiment, /*include_processed=*/false);
    };
    int serial_shards = 0;
    int parallel_shards = 0;
    std::uint64_t serial_handoffs = 0;
    std::uint64_t parallel_handoffs = 0;
    const auto serial = run_with_shards(1, &serial_shards, &serial_handoffs);
    const auto sharded = run_with_shards(4, &parallel_shards, &parallel_handoffs);
    EXPECT_EQ(serial_shards, 1);
    EXPECT_EQ(parallel_shards, 4) << "the interference-only gap must actually be cut";
    EXPECT_GT(parallel_handoffs, 0u) << "boundary transmissions must be ghost-mirrored";
    EXPECT_EQ(serial, sharded);
}

TEST(ShardedRun, ThreadedClustersMatchSerialWithoutManualRouteCompile)
{
    // Shard workers share the routing table and nothing here prepares it
    // before the run: lookups must be pure reads. (A table that compiled
    // lazily on the first lookup raced between the two workers and made
    // some runs diverge from the serial reference; the TSan CI job flags
    // such a race itself.)
    const auto fingerprint = [](int shards, int threads) {
        // The benchmark ladder's cluster grid, which exposed the race.
        net::ClustersSpec clusters;
        clusters.cols = 8;
        clusters.rows = 8;
        clusters.start_s = 0.0;
        clusters.duration_s = 1.0;
        clusters.max_shards = shards;
        analysis::ExperimentFactory factory(analysis::ScenarioSpec::clusters_spec(clusters),
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

TEST(ShardedRun, ClustersFigureJsonIsByteIdenticalAcrossShardsAndThreads)
{
    cli::register_builtin_figures();
    const cli::FigureSpec* spec = cli::FigureRegistry::instance().find("grid_clusters");
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
    EXPECT_EQ(serial, run(2, 1));
    EXPECT_EQ(serial, run(4, 4));
}

TEST(ShardedRun, ConnectedCutRejectsNonReferencePhyModels)
{
    // Per-shard channel RNG streams only stay equivalent to the serial
    // reference while no channel ever draws; installing a drawing model
    // on a connected-cut network must refuse loudly.
    analysis::ScenarioSpec spec = clusters_scenario(4);
    spec.models.propagation = phy::PhyModelConfig::Propagation::kJakes;
    spec.models.jakes_doppler_hz = 5.0;
    analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
    EXPECT_THROW(factory.make(/*seed=*/3), std::invalid_argument);
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

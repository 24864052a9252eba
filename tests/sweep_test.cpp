#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/experiment_factory.h"
#include "analysis/sweep.h"
#include "util/parallel.h"

namespace ezflow::analysis {
namespace {

SweepConfig small_config()
{
    SweepConfig config;
    // make_line flows are active on [5, 5 + duration); measure the settled
    // tail of that window.
    config.windows.push_back(SweepWindow{"steady", 7.0, 11.0, {0}});
    config.seeds = {7, 8, 9};
    return config;
}

ExperimentFactory small_factory(Mode mode)
{
    ExperimentOptions options;
    options.mode = mode;
    options.throughput_window = util::kSecond;
    return ExperimentFactory(ScenarioSpec::line(3, 6.0), options);
}

void expect_identical(const SweepResult& a, const SweepResult& b)
{
    ASSERT_EQ(a.per_seed.size(), b.per_seed.size());
    for (std::size_t s = 0; s < a.per_seed.size(); ++s) {
        EXPECT_EQ(a.per_seed[s].seed, b.per_seed[s].seed);
        ASSERT_EQ(a.per_seed[s].windows.size(), b.per_seed[s].windows.size());
        for (std::size_t w = 0; w < a.per_seed[s].windows.size(); ++w) {
            const auto& wa = a.per_seed[s].windows[w];
            const auto& wb = b.per_seed[s].windows[w];
            // Bit-identical, not approximately equal: the sweep must not
            // depend on thread count or scheduling.
            EXPECT_EQ(wa.fairness, wb.fairness);
            EXPECT_EQ(wa.aggregate_kbps, wb.aggregate_kbps);
            ASSERT_EQ(wa.flows.size(), wb.flows.size());
            for (std::size_t f = 0; f < wa.flows.size(); ++f) {
                EXPECT_EQ(wa.flows[f].mean_kbps, wb.flows[f].mean_kbps);
                EXPECT_EQ(wa.flows[f].stddev_kbps, wb.flows[f].stddev_kbps);
                EXPECT_EQ(wa.flows[f].mean_delay_s, wb.flows[f].mean_delay_s);
                EXPECT_EQ(wa.flows[f].max_delay_s, wb.flows[f].max_delay_s);
            }
        }
    }
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        EXPECT_EQ(a.windows[w].fairness.mean(), b.windows[w].fairness.mean());
        EXPECT_EQ(a.windows[w].aggregate_kbps.mean(), b.windows[w].aggregate_kbps.mean());
    }
}

TEST(SweepRunner, SameSeedGridIsBitIdenticalAcrossThreadCounts)
{
    const SweepConfig config = small_config();
    const std::vector<ExperimentFactory> cells = {small_factory(Mode::kBaseline80211),
                                                  small_factory(Mode::kEzFlow)};
    const std::vector<SweepResult> serial = SweepRunner(1).run_grid(cells, config);
    const std::vector<SweepResult> threaded = SweepRunner(4).run_grid(cells, config);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(threaded.size(), 2u);
    expect_identical(serial[0], threaded[0]);
    expect_identical(serial[1], threaded[1]);
    // And re-running the threaded sweep reproduces itself.
    const std::vector<SweepResult> again = SweepRunner(4).run_grid(cells, config);
    expect_identical(threaded[0], again[0]);
    expect_identical(threaded[1], again[1]);
}

TEST(SweepRunner, SeedsActuallyVaryTheRuns)
{
    const SweepConfig config = small_config();
    const SweepResult result = SweepRunner(2).run(small_factory(Mode::kBaseline80211), config);
    ASSERT_EQ(result.per_seed.size(), 3u);
    std::set<double> distinct;
    for (const SeedResult& seed_result : result.per_seed)
        distinct.insert(seed_result.windows[0].flows[0].mean_kbps);
    EXPECT_GT(distinct.size(), 1u);  // different seeds, different runs
    // The aggregate accumulated one sample per seed.
    EXPECT_EQ(result.windows[0].flows[0].mean_kbps.count(), 3);
    EXPECT_GT(result.windows[0].flows[0].mean_kbps.mean(), 0.0);
}

TEST(SweepRunner, KeepExperimentsRetainsPerSeedRuns)
{
    SweepConfig config = small_config();
    config.keep_experiments = true;
    const SweepResult result = SweepRunner(2).run(small_factory(Mode::kBaseline80211), config);
    ASSERT_EQ(result.experiments.size(), 3u);
    for (const auto& experiment : result.experiments) {
        ASSERT_NE(experiment, nullptr);
        EXPECT_FALSE(experiment->throughput(0).series().empty());
    }
}

TEST(SweepRunner, RejectsEmptyGrids)
{
    SweepConfig config = small_config();
    const SweepRunner runner(2);
    EXPECT_THROW(runner.run_grid({}, config), std::invalid_argument);
    config.seeds.clear();
    EXPECT_THROW(runner.run(small_factory(Mode::kBaseline80211), config), std::invalid_argument);
}

TEST(SweepRunner, WorkerExceptionsPropagate)
{
    SweepConfig config = small_config();
    config.windows[0].flow_ids = {42};  // no such flow in the scenario
    EXPECT_THROW(SweepRunner(2).run(small_factory(Mode::kBaseline80211), config),
                 std::invalid_argument);
}

TEST(ScenarioSpec, BuildsEveryKind)
{
    EXPECT_EQ(scenario_name(ScenarioSpec::line(4, 10.0)), "line-4hop");
    EXPECT_EQ(scenario_name(ScenarioSpec::testbed(5, 65, 5, 65)), "testbed");
    const net::Scenario line = build_scenario(ScenarioSpec::line(4, 10.0), 7);
    EXPECT_EQ(line.network->node_count(), 5);
    EXPECT_EQ(line.flows.size(), 1u);
    const net::Scenario testbed = build_scenario(ScenarioSpec::testbed(5, 65, 10, 60), 7);
    EXPECT_EQ(testbed.flows.size(), 2u);
    EXPECT_DOUBLE_EQ(testbed.flows[1].start_s, 10.0);
}

TEST(ExperimentFactory, WithModeChangesOnlyTheMode)
{
    const ExperimentFactory base = small_factory(Mode::kBaseline80211);
    const ExperimentFactory ez = base.with_mode(Mode::kEzFlow);
    EXPECT_EQ(ez.options().mode, Mode::kEzFlow);
    EXPECT_EQ(ez.options().caa.bmin, base.options().caa.bmin);
    EXPECT_EQ(ez.spec().line_hops, base.spec().line_hops);
    EXPECT_EQ(base.label(), "line-3hop / 802.11");
    EXPECT_EQ(ez.label(), "line-3hop / EZ-flow");
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    util::parallel_for(257, 4, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RunsInlineWhenSingleThreaded)
{
    std::vector<int> order;
    util::parallel_for(5, 1, [&](int i) { order.push_back(i); });  // no locking needed
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(util::parallel_for(16, 4,
                                    [&](int i) {
                                        ++ran;
                                        if (i % 3 == 0) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 16);  // the throw comes after every index has run
}

TEST(ParallelFor, RethrowsTheLowestIndexsExceptionNotTheEarliest)
{
    // Index 2 throws first in time; index 1's exception must still win.
    EXPECT_THROW(util::parallel_for(3, 2,
                                    [](int i) {
                                        if (i == 1) {
                                            std::this_thread::sleep_for(
                                                std::chrono::milliseconds(50));
                                            throw std::logic_error("index 1");
                                        }
                                        if (i == 2) throw std::runtime_error("index 2");
                                    }),
                 std::logic_error);
}

}  // namespace
}  // namespace ezflow::analysis

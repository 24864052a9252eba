#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/experiment_factory.h"
#include "analysis/sweep.h"
#include "net/topologies.h"
#include "util/parallel.h"

namespace ezflow::analysis {
namespace {

// make_line flows are active on [5, 5 + duration); measure the settled
// tail of that window.
const std::vector<SweepWindow> kSteady = {SweepWindow{"steady", 7.0, 11.0, {0}}};

SweepConfig small_config()
{
    SweepConfig config;
    config.seeds = {7, 8, 9};
    return config;
}

SweepCell small_cell(Mode mode, std::vector<SweepWindow> windows = kSteady)
{
    ExperimentOptions options;
    options.mode = mode;
    options.throughput_window = util::kSecond;
    return {ExperimentFactory(ScenarioSpec::line(3, 6.0), options),
            summarize_windows(std::move(windows))};
}

/// Bit-identical, not approximately equal: the sweep must not depend on
/// thread count or scheduling.
void expect_identical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        const WindowResult& wa = a.windows[w];
        const WindowResult& wb = b.windows[w];
        EXPECT_EQ(wa.label, wb.label);
        ASSERT_EQ(wa.metrics.size(), wb.metrics.size());
        for (std::size_t m = 0; m < wa.metrics.size(); ++m) {
            EXPECT_EQ(wa.metrics[m].first, wb.metrics[m].first);
            EXPECT_EQ(wa.metrics[m].second.mean, wb.metrics[m].second.mean) << wa.metrics[m].first;
            EXPECT_EQ(wa.metrics[m].second.ci95, wb.metrics[m].second.ci95) << wa.metrics[m].first;
            EXPECT_EQ(wa.metrics[m].second.n, wb.metrics[m].second.n) << wa.metrics[m].first;
        }
    }
}

void expect_identical(const SweepResult& a, const SweepResult& b)
{
    ASSERT_EQ(a.per_seed.size(), b.per_seed.size());
    for (std::size_t s = 0; s < a.per_seed.size(); ++s)
        expect_identical(a.per_seed[s], b.per_seed[s]);
    // And so is their fold.
    expect_identical(fold_seeds(a.per_seed), fold_seeds(b.per_seed));
}

TEST(SweepRunner, SameSeedGridIsBitIdenticalAcrossThreadCounts)
{
    const SweepConfig config = small_config();
    const std::vector<SweepCell> cells = {small_cell(Mode::kBaseline80211),
                                          small_cell(Mode::kEzFlow)};
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
    // Each cell is labelled by its factory.
    EXPECT_EQ(serial[0].per_seed[0].label, "line-3hop / 802.11");
    EXPECT_EQ(serial[1].per_seed[0].label, "line-3hop / EZ-flow");
}

TEST(SweepRunner, SeedsActuallyVaryTheRuns)
{
    const SweepConfig config = small_config();
    const SweepCell cell = small_cell(Mode::kBaseline80211);
    const SweepResult result = SweepRunner(2).run(cell, config);
    ASSERT_EQ(result.per_seed.size(), 3u);
    std::set<double> distinct;
    for (const RunResult& seed_result : result.per_seed)
        distinct.insert(seed_result.windows[0].find("F0.kbps")->mean);
    EXPECT_GT(distinct.size(), 1u);  // different seeds, different runs
    // Slot s holds seed s's run.
    RunResult alone;
    alone.label = cell.factory.label();
    cell.measure(*cell.factory.make(config.seeds[1]), alone);
    expect_identical(result.per_seed[1], alone);
    // The fold accumulated one sample per seed.
    const MetricStat folded = *fold_seeds(result.per_seed).windows[0].find("F0.kbps");
    EXPECT_EQ(folded.n, 3);
    EXPECT_GT(folded.mean, 0.0);
}

TEST(SweepRunner, KeepFirstRetainsTheFirstSeedsRun)
{
    SweepConfig config = small_config();
    EXPECT_EQ(SweepRunner(2).run(small_cell(Mode::kBaseline80211), config).first, nullptr);
    config.keep_first = true;
    const SweepResult result = SweepRunner(2).run(small_cell(Mode::kBaseline80211), config);
    ASSERT_NE(result.first, nullptr);
    EXPECT_FALSE(result.first->throughput(0).series().empty());
    EXPECT_EQ(result.first->summarize(0, 7.0, 11.0).mean_kbps,
              result.per_seed[0].windows[0].find("F0.kbps")->mean);
}

TEST(SweepRunner, RejectsEmptyGrids)
{
    SweepConfig config = small_config();
    const SweepRunner runner(2);
    EXPECT_THROW(runner.run_grid({}, config), std::invalid_argument);
    config.seeds.clear();
    EXPECT_THROW(runner.run(small_cell(Mode::kBaseline80211), config), std::invalid_argument);
}

TEST(SweepRunner, WorkerExceptionsPropagate)
{
    // No such flow in the scenario.
    EXPECT_THROW(SweepRunner(2).run(small_cell(Mode::kBaseline80211,
                                               {SweepWindow{"steady", 7.0, 11.0, {42}}}),
                                    small_config()),
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

TEST(ExperimentFactory, BuilderCellsRunTheBuiltScenarioPerSeed)
{
    std::vector<std::uint64_t> built;
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    const ExperimentFactory factory(
        "two hops",
        [&built](std::uint64_t seed) {
            built.push_back(seed);
            return net::make_line(2, 6.0, seed);
        },
        options);
    EXPECT_EQ(factory.label(), "two hops / EZ-flow");
    const auto experiment = factory.make(11);
    EXPECT_EQ(built, (std::vector<std::uint64_t>{11}));
    EXPECT_EQ(experiment->network().node_count(), 3);
    EXPECT_NE(experiment->agent(0), nullptr);  // the options reach the experiment
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

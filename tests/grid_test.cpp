// Stress/determinism tier for the generated large topologies: a 7x7 grid
// carrying 12 crossing flows must run under the contention coordinator and
// the reachability-culled channel, deliver traffic, and produce
// byte-identical result JSON regardless of the sweep thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "cli/figures.h"
#include "cli/registry.h"
#include "net/network.h"
#include "net/topo_gen.h"

namespace ezflow {
namespace {

analysis::ScenarioSpec stress_grid_spec()
{
    net::GridSpec grid;
    grid.cols = 7;
    grid.rows = 7;
    grid.cross_flows = 12;
    grid.duration_s = 6.0;
    return analysis::ScenarioSpec::grid_cross(grid);
}

TEST(GridStress, SevenBySevenTwelveFlowsRunsAndDelivers)
{
    analysis::ExperimentFactory factory(stress_grid_spec(), analysis::ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
    ASSERT_EQ(experiment->network().node_count(), 49);
    EXPECT_GE(experiment->transmitting_nodes().size(), 40u)
        << "12 straight 6-hop flows should put most of the lattice on air";
    experiment->run();
    std::uint64_t delivered = 0;
    for (int id = 0; id < experiment->network().node_count(); ++id)
        delivered += experiment->network().node(id).delivered();
    EXPECT_GT(delivered, 100u) << "the stress grid must actually carry traffic";
}

TEST(GridStress, FigureJsonIsByteIdenticalAcrossThreadCounts)
{
    cli::register_builtin_figures();
    const cli::FigureSpec* spec = cli::FigureRegistry::instance().find("grid_cross");
    ASSERT_NE(spec, nullptr);
    const auto run_with_threads = [spec](int threads) {
        cli::FigureContext ctx;
        ctx.spec = spec;
        ctx.scale = 0.05;
        ctx.seed = 7;
        ctx.seeds = 3;
        ctx.threads = threads;
        ctx.extra = {{"cols", "7"}, {"rows", "7"}, {"flows", "12"}, {"duration", "6"}};
        return spec->run(ctx).to_json().dump();
    };
    const std::string single = run_with_threads(1);
    const std::string pooled = run_with_threads(4);
    EXPECT_FALSE(single.empty());
    EXPECT_EQ(single, pooled);
}

TEST(GridStress, MaxminFigureIsByteIdenticalAcrossThreadCounts)
{
    cli::register_builtin_figures();
    const cli::FigureSpec* spec = cli::FigureRegistry::instance().find("grid_maxmin");
    ASSERT_NE(spec, nullptr);
    const auto run_with_threads = [spec](int threads) {
        cli::FigureContext ctx;
        ctx.spec = spec;
        ctx.scale = 0.05;
        ctx.seed = 5;
        ctx.seeds = 2;
        ctx.threads = threads;
        return spec->run(ctx).to_json().dump();
    };
    EXPECT_EQ(run_with_threads(1), run_with_threads(4));
}

}  // namespace
}  // namespace ezflow

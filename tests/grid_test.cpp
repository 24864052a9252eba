// Stress/determinism tier for the generated large topologies: a 7x7 grid
// carrying 12 crossing flows must run under the contention coordinator and
// the reachability-culled channel, deliver traffic, and produce
// byte-identical result JSON regardless of the sweep thread count. A
// crossing grid with bystanders must also run the same with its
// bystanders deaf as with every node listening.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "cli/figures.h"
#include "cli/registry.h"
#include "net/network.h"
#include "net/topo_gen.h"
#include "phy/geometry.h"
#include "traffic/sink.h"
#include "util/units.h"

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

// ------------------------------------------------------------ bystanders
// A fault-free Experiment deafens every node on no flow path. Oracle: the
// same run under a fault plan whose only event falls after the end, where
// every node listens, must produce the same outcome.

/// Everything a run produces at the sink, on the air and at each path
/// node's MAC and PHY.
struct Outcome {
    std::vector<std::uint64_t> counts;
    std::vector<std::vector<util::SimTime>> delay_times;  ///< per flow
    std::vector<std::vector<double>> delays;              ///< per flow
};

/// Run a 7x7 crossing grid with two row and two column flows: the nodes
/// between those lines are bystanders. `listening_oracle` adds a fault
/// plan whose one event lies after the run; `lossy` puts a loss on every
/// delivery-range link, bystanders' included.
Outcome run_bystander_grid(bool listening_oracle, bool lossy, analysis::Mode mode)
{
    net::GridSpec grid;
    grid.cols = 7;
    grid.rows = 7;
    grid.cross_flows = 4;
    grid.start_s = 1.0;
    grid.duration_s = 4.0;
    analysis::ScenarioSpec spec = analysis::ScenarioSpec::grid_cross(grid);
    if (listening_oracle) spec.faults.node_down(100.0, 0);
    analysis::ExperimentOptions options;
    options.mode = mode;
    std::unique_ptr<analysis::Experiment> experiment =
        analysis::ExperimentFactory(spec, options).make(/*seed=*/11);
    net::Network& network = experiment->network();

    std::vector<bool> on_path(static_cast<std::size_t>(network.node_count()), false);
    for (const net::FlowPlan& plan : experiment->scenario().flows)
        for (const net::NodeId id : plan.path) on_path[static_cast<std::size_t>(id)] = true;
    int deaf = 0;
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        const bool is_deaf = network.node(id).phy().deaf();
        deaf += is_deaf ? 1 : 0;
        // Under a fault plan route repair may use any node: none is deaf.
        EXPECT_EQ(is_deaf, !listening_oracle && !on_path[static_cast<std::size_t>(id)])
            << "node " << id;
    }
    EXPECT_EQ(deaf > 0, !listening_oracle);

    if (lossy) {
        const double range_m = network.config().phy.tx_range_m;
        const auto at = [&network](net::NodeId id) { return network.node(id).phy().position(); };
        for (net::NodeId a = 0; a < network.node_count(); ++a)
            for (net::NodeId b = 0; b < network.node_count(); ++b)
                if (a != b && phy::distance(at(a), at(b)) <= range_m)
                    network.channel().set_link_loss(a, b, 0.2);
    }
    experiment->run();

    Outcome outcome;
    std::vector<std::uint64_t>& counts = outcome.counts;
    counts.push_back(network.total_transmissions());
    for (const net::FlowPlan& plan : experiment->scenario().flows) {
        const traffic::Sink::FlowRecord& record = experiment->sink().flow(plan.flow_id);
        counts.insert(counts.end(), {record.packets, record.bytes, record.duplicates});
        counts.push_back(record.reordered);
        const util::TimeSeries delays = record.deliveries.delay_series();
        outcome.delay_times.push_back(delays.times());
        outcome.delays.push_back(delays.values());
    }
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        if (!on_path[static_cast<std::size_t>(id)]) continue;
        const net::Node& node = network.node(id);
        const mac::DcfMac& mac = node.mac();
        const phy::NodePhy& phy = node.phy();
        counts.insert(counts.end(), {mac.data_attempts(), mac.retransmissions()});
        counts.insert(counts.end(), {mac.retry_drops(), mac.acks_sent(), mac.successes()});
        counts.insert(counts.end(), {mac.dup_rx_suppressed(), mac.block_acks_sent()});
        counts.insert(counts.end(), {phy.frames_decoded(), phy.frames_corrupted()});
        counts.insert(counts.end(), {phy.frames_missed_busy(), node.forwarded()});
        counts.push_back(node.delivered());
    }
    return outcome;
}

/// Deafening the bystanders must not move anything the all-listening
/// run produces.
void expect_deafening_changes_nothing(bool lossy, analysis::Mode mode)
{
    const Outcome deafened = run_bystander_grid(/*listening_oracle=*/false, lossy, mode);
    const Outcome listening = run_bystander_grid(/*listening_oracle=*/true, lossy, mode);
    EXPECT_EQ(deafened.counts, listening.counts);
    EXPECT_EQ(deafened.delay_times, listening.delay_times);
    EXPECT_EQ(deafened.delays, listening.delays);
    std::size_t delivered = 0;
    for (const std::vector<double>& flow : deafened.delays) delivered += flow.size();
    EXPECT_GT(delivered, 50u) << "the grid must carry traffic";
}

TEST(Bystanders, DeafeningMatchesTheAllListeningRun)
{
    expect_deafening_changes_nothing(/*lossy=*/false, analysis::Mode::kBaseline80211);
}

TEST(Bystanders, DeafeningMatchesTheAllListeningRunUnderEzFlow)
{
    expect_deafening_changes_nothing(/*lossy=*/false, analysis::Mode::kEzFlow);
}

TEST(Bystanders, LossyLinksToDeafNodesKeepTheChannelStream)
{
    // Bystanders next to a path sit inside its delivery range, so their
    // link-loss rolls interleave with the path nodes' in every fan-out.
    expect_deafening_changes_nothing(/*lossy=*/true, analysis::Mode::kBaseline80211);
}

}  // namespace
}  // namespace ezflow

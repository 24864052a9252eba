// Testbed figures (Fig. 4, Tables 1-2): the 9-router deployment of
// Fig. 3 with the 7-hop flow F1 and the 4-hop flow F2.

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "net/topologies.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

struct FlowCase {
    const char* name;
    int flow_id;
    std::vector<int> relays;  ///< labels of the relay nodes the paper plots
};

FigureResult run_fig04(const FigureContext& ctx)
{
    const double duration_s = 2000.0 * ctx.scale;
    const double warmup = 0.25 * duration_s;
    const std::vector<FlowCase> cases = {{"F1", 1, {1, 2, 3}}, {"F2", 2, {4, 5, 6}}};
    const std::vector<Mode> modes = {Mode::kBaseline80211, Mode::kEzFlow};
    std::vector<SweepCell> cells;
    for (const FlowCase& fc : cases) {
        // Activate only the flow under test (the other gets a null window).
        const bool is_f1 = fc.flow_id == 1;
        const ScenarioSpec spec = ScenarioSpec::testbed(
            is_f1 ? 5.0 : duration_s, is_f1 ? duration_s : duration_s + 0.001,
            is_f1 ? duration_s : 5.0, is_f1 ? duration_s + 0.001 : duration_s);
        for (const Mode mode : modes) {
            ExperimentOptions options;
            options.mode = mode;
            options.caa.max_cw = 1 << 10;  // MadWifi hardware limit (Sec. 4.1)
            const auto measure = [fc, mode, duration_s, warmup](Experiment& exp, RunResult& cell) {
                exp.run_until_s(duration_s);
                cell.label = std::string(fc.name) + " / " + mode_name(mode);
                WindowResult& window = cell.add_window("settled");
                for (int n : fc.relays) {
                    const std::string prefix = "N" + std::to_string(n);
                    window.set(prefix + ".buf_mean",
                               metric_point(exp.buffers().mean(n, util::from_seconds(warmup),
                                                               util::from_seconds(duration_s))));
                    window.set(prefix + ".buf_max", metric_point(exp.buffers().max(n)));
                }
                window.set("goodput_kbps",
                           metric_point(exp.summarize(fc.flow_id, warmup, duration_s).mean_kbps));
                if (mode == Mode::kEzFlow) {
                    const auto& path =
                        exp.scenario().flows[static_cast<std::size_t>(fc.flow_id - 1)].path;
                    if (const auto* src = exp.agent(path[0]))
                        window.set("source_cw", metric_point(src->cw_toward(path[1])));
                }
            };
            cells.push_back({ExperimentFactory(spec, options), measure});
        }
    }
    const auto sweeps = sweep_cells(ctx, cells);

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (Experiment* first = sweeps[c].first.get()) {
            const FlowCase& fc = cases[c / modes.size()];
            std::vector<std::pair<std::string, util::TimeSeries>> series;
            for (int n : fc.relays)
                series.emplace_back("N" + std::to_string(n), first->buffers().trace(n));
            maybe_dump_series(ctx,
                              std::string("fig04_") + fc.name + "_" +
                                  (modes[c % modes.size()] == Mode::kEzFlow ? "ezflow" : "80211"),
                              series);
        }
    }
    return result;
}

FigureResult run_table1(const FigureContext& ctx)
{
    const double duration_s = 1200.0 * ctx.scale;
    std::vector<SweepCell> cells;
    for (int link = 0; link < 7; ++link) {
        // A 1-hop network with the link's loss rate applied, on its own
        // seed stream.
        const auto build = [link, duration_s](std::uint64_t seed) {
            net::Scenario scenario = net::make_chain(
                net::testbed_config(seed + static_cast<std::uint64_t>(link)), 1, 200.0, 0.0,
                duration_s);
            scenario.network->channel().set_link_loss(
                0, 1, net::testbed_link_loss()[static_cast<std::size_t>(link)]);
            return scenario;
        };
        const auto measure = [link, duration_s](Experiment& exp, RunResult& cell) {
            exp.run_until_s(duration_s);
            const double kbps = exp.sink().goodput_kbps(0, util::from_seconds(duration_s * 0.05),
                                                        util::from_seconds(duration_s));
            // One metric of the one shared window (add_folded merges them).
            cell.label = "per-link capacity";
            cell.add_window("isolation").set("l" + std::to_string(link) + ".kbps",
                                             metric_point(kbps));
        };
        cells.push_back({ExperimentFactory("testbed link", build, {}), measure});
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

FigureResult run_table2(const FigureContext& ctx)
{
    const double duration_s = 1800.0 * ctx.scale;
    const double warmup = 0.2 * duration_s;
    // Disabled flows get a zero-length window after the measured horizon.
    const double off = duration_s + 1.0;
    std::vector<SweepCell> cells;
    for (const Mode mode : {Mode::kBaseline80211, Mode::kEzFlow}) {
        for (const int active : {0b01, 0b10, 0b11}) {
            const bool f1_active = (active & 0b01) != 0;
            const bool f2_active = (active & 0b10) != 0;
            const ScenarioSpec spec = ScenarioSpec::testbed(
                f1_active ? 5.0 : off, f1_active ? duration_s : off + 0.001,
                f2_active ? 5.0 : off, f2_active ? duration_s : off + 0.001);
            ExperimentOptions options;
            options.mode = mode;
            options.caa.max_cw = 1 << 10;  // testbed hardware cap
            const auto measure = [=](Experiment& exp, RunResult& cell) {
                exp.run_until_s(duration_s);
                const std::string label =
                    f1_active && f2_active ? "both" : (f1_active ? "F1 alone" : "F2 alone");
                cell.label = label + " / " + mode_name(mode);
                WindowResult& window = cell.add_window("settled");
                for (const int flow : {1, 2}) {
                    if (!(flow == 1 ? f1_active : f2_active)) continue;
                    const auto s = exp.summarize(flow, warmup, duration_s);
                    const std::string prefix = "F" + std::to_string(flow);
                    window.set(prefix + ".kbps", metric_point(s.mean_kbps));
                    window.set(prefix + ".kbps_sd", metric_point(s.stddev_kbps));
                }
                if (f1_active && f2_active)
                    window.set("fairness", metric_point(exp.fairness({1, 2}, warmup, duration_s)));
            };
            cells.push_back({ExperimentFactory(spec, options), measure});
        }
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

}  // namespace

void register_testbed_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "fig04", "figure",
        "testbed relay buffers with/without EZ-Flow",
        "Fig. 4 — 802.11: ~42-44 pkts at N1/N2 (F1) and N4 (F2); EZ-flow: 29.5 / 5.2 / 5.3",
        "Under 802.11 the relays before the bottleneck saturate (F1: N1, N2 at the l2 "
        "bottleneck; F2: N4). EZ-flow drains them by an order of magnitude; F1's N1 stays "
        "partially loaded because the 2^10 cw cap limits the source's self-throttling.",
        0.1, 1, 0.03, 1, run_fig04});
    registry.add(FigureSpec{
        "table1", "table",
        "per-link capacity of flow F1's links",
        "Table 1 — l2 is the bottleneck at ~408 kb/s",
        "l0 fastest (~845 kb/s at 1 Mb/s PHY), l2 the bottleneck around half of that, the "
        "remaining links in between.",
        0.1, 1, 0.05, 1, run_table1});
    registry.add(FigureSpec{
        "table2", "table",
        "testbed throughput / stddev / fairness",
        "Table 2 — 802.11: (7, 143) FI 0.55 together; EZ-flow: (71, 110) FI 0.96",
        "Alone, each flow gains ~20% with EZ-flow. Together, 802.11 starves the long flow F1 "
        "(low FI); EZ-flow restores both flows to comparable rates and pushes FI toward 1.",
        0.15, 1, 0.03, 1, run_table2});
}

}  // namespace ezflow::cli

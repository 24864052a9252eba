// Scenario 1 figures (Figs. 6-8): two 8-hop flows merging toward a
// gateway. Ported from the former standalone bench mains; the logic is
// unchanged, the output is now a structured FigureResult.

#include <cmath>

#include "cli/figures.h"
#include "cli/figures_common.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

FigureResult run_fig06(const FigureContext& ctx)
{
    const Scenario1Periods periods(ctx.scale);
    const std::vector<Mode> modes = {Mode::kBaseline80211, Mode::kEzFlow};
    const auto sweeps = sweep_modes(ctx, ScenarioSpec::scenario1(ctx.scale), modes,
                                    summarize_windows(periods.windows()));

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (Experiment* first = sweeps[m].first.get())
            maybe_dump_series(
                ctx, std::string("fig06_") + (modes[m] == Mode::kEzFlow ? "ezflow" : "80211"),
                {{"F1", &first->throughput(1).series()}, {"F2", &first->throughput(2).series()}});
    }
    return result;
}

FigureResult run_fig07(const FigureContext& ctx)
{
    const Scenario1Periods periods(ctx.scale);
    std::vector<SweepWindow> windows = periods.windows();
    // The transient right after F2 arrives (the paper's delay peak),
    // measured as its own window.
    const double w2 = 0.3 * (periods.p2_end - periods.p2_begin);
    windows.push_back(SweepWindow{"transient", periods.p2_begin, periods.p2_begin + w2, {1, 2}});
    const std::vector<Mode> modes = {Mode::kBaseline80211, Mode::kEzFlow};
    const auto sweeps = sweep_modes(ctx, ScenarioSpec::scenario1(ctx.scale), modes,
                                    summarize_windows(std::move(windows)));

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (Experiment* first = sweeps[m].first.get())
            maybe_dump_series(
                ctx, std::string("fig07_") + (modes[m] == Mode::kEzFlow ? "ezflow" : "80211"),
                {{"F1", first->sink().flow(1).deliveries.delay_series()},
                 {"F2", first->sink().flow(2).deliveries.delay_series()}});
    }
    return result;
}

double log_cw_at(const QueueTracer& tracer, net::NodeId node, double t_s, double scale)
{
    const double cw = tracer.mean(node, util::from_seconds(t_s - 10.0 * scale),
                                  util::from_seconds(t_s + 40.0 * scale));
    return cw > 0 ? std::log2(cw) : 0.0;
}

FigureResult run_fig08(const FigureContext& ctx)
{
    const Scenario1Periods periods(ctx.scale);
    // The nodes the paper plots: the two sources (N12, N11), the first
    // relays of each branch (N10, N9, N8, N7) and a trunk relay (N4).
    const std::vector<std::string> labels = {"N12", "N11", "N10", "N9", "N8", "N7", "N4"};
    const auto measure = [&](Experiment& experiment, RunResult& cell) {
        experiment.run();
        const double sample_times[] = {periods.p1_end - 50 * ctx.scale,
                                       periods.p2_end - 50 * ctx.scale,
                                       periods.p3_end - 50 * ctx.scale};
        const char* window_names[] = {"F1 alone", "F1 + F2", "end"};
        for (int t = 0; t < 3; ++t) {
            WindowResult& window = cell.add_window(window_names[t]);
            for (const std::string& label : labels)
                window.set(label + ".log2_cw",
                           metric_point(log_cw_at(experiment.cw_tracer(),
                                                  label_to_node(experiment.scenario(), label),
                                                  sample_times[t], ctx.scale)));
        }
    };
    const auto sweeps =
        sweep_modes(ctx, ScenarioSpec::scenario1(ctx.scale), {Mode::kEzFlow}, measure);

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    if (Experiment* first = sweeps.front().first.get()) {
        std::vector<std::pair<std::string, util::TimeSeries>> series;
        for (const std::string& label : labels)
            series.emplace_back(label,
                                first->cw_tracer().trace(label_to_node(first->scenario(), label)));
        maybe_dump_series(ctx, "fig08_cw", series);
    }
    return result;
}

}  // namespace

void register_scenario1_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "fig06", "figure",
        "throughput vs time, 2-flow merge (scenario 1)",
        "Fig. 6 — EZ-flow raises F1-alone throughput ~20% and smooths both flows",
        "EZ-flow improves the single-flow period's throughput (~20% in the paper) and keeps "
        "the two-flow period smoother (lower spread) at an equal or better aggregate.",
        0.3, 8, 0.05, 2, run_fig06});
    registry.add(FigureSpec{
        "fig07", "figure",
        "end-to-end delay vs time, 2-flow merge (scenario 1)",
        "Fig. 7 — 802.11 ~4-6 s; EZ-flow ~0.2 s with transient peaks at load changes",
        "An order-of-magnitude delay reduction under EZ-flow in every period; a visible "
        "transient peak right after F2 joins, quickly damped as the windows re-converge.",
        0.3, 8, 0.05, 2, run_fig07});
    registry.add(FigureSpec{
        "fig08", "figure",
        "EZ-Flow contention-window evolution (scenario 1)",
        "Fig. 8 — relays at 2^4; F1 source to ~2^7 alone, sources to ~2^11 together",
        "Sources carry the largest windows (self-throttling), relays near the gateway stay "
        "at/near the 2^4 minimum, windows rise when F2 joins and relax back after it leaves.",
        0.3, 8, 0.05, 2, run_fig08});
}

}  // namespace ezflow::cli

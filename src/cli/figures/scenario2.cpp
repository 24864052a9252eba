// Scenario 2 figures (Figs. 10-11, Table 3): three crossing flows with
// hidden sources. Ported from the former standalone bench mains.

#include <cmath>

#include "cli/figures.h"
#include "cli/figures_common.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

FigureResult run_fig10(const FigureContext& ctx)
{
    const Scenario2Periods periods(ctx.scale);
    const std::vector<Mode> modes = {Mode::kBaseline80211, Mode::kEzFlow};
    const auto sweeps = sweep_modes(ctx, ScenarioSpec::scenario2(ctx.scale), modes,
                                    summarize_windows(periods.windows()));

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (Experiment* first = sweeps[m].first.get())
            maybe_dump_series(
                ctx, std::string("fig10_") + (modes[m] == Mode::kEzFlow ? "ezflow" : "80211"),
                {{"F1", first->sink().flow(1).deliveries.delay_series()},
                 {"F2", first->sink().flow(2).deliveries.delay_series()},
                 {"F3", first->sink().flow(3).deliveries.delay_series()}});
    }
    return result;
}

double log_cw_before(const QueueTracer& tracer, net::NodeId node, double t_s, double scale)
{
    const double cw =
        tracer.mean(node, util::from_seconds(t_s - 60.0 * scale), util::from_seconds(t_s));
    return cw > 0 ? std::log2(cw) : 0.0;
}

FigureResult run_fig11(const FigureContext& ctx)
{
    const Scenario2Periods periods(ctx.scale);
    // The paper plots cw0, cw1 (F1), cw10, cw11 (F2), cw19, cw20 (F3).
    const std::vector<std::string> labels = {"N0", "N1", "N10", "N11", "N19", "N20"};
    const auto measure = [&](Experiment& experiment, RunResult& cell) {
        experiment.run();
        const double sample_times[] = {periods.p1_end, periods.p2_end, periods.p3_end};
        const char* window_names[] = {"P1", "P2", "P3"};
        for (int t = 0; t < 3; ++t) {
            WindowResult& window = cell.add_window(window_names[t]);
            for (const std::string& label : labels)
                window.set(label + ".log2_cw",
                           metric_point(log_cw_before(experiment.cw_tracer(),
                                                      label_to_node(experiment.scenario(), label),
                                                      sample_times[t], ctx.scale)));
        }
    };
    const auto sweeps =
        sweep_modes(ctx, ScenarioSpec::scenario2(ctx.scale), {Mode::kEzFlow}, measure);

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    if (Experiment* first = sweeps.front().first.get()) {
        std::vector<std::pair<std::string, util::TimeSeries>> series;
        for (const std::string& label : labels)
            series.emplace_back(label,
                                first->cw_tracer().trace(label_to_node(first->scenario(), label)));
        maybe_dump_series(ctx, "fig11_cw", series);
    }
    return result;
}

FigureResult run_table3(const FigureContext& ctx)
{
    const Scenario2Periods periods(ctx.scale);
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_modes(ctx, ScenarioSpec::scenario2(ctx.scale),
                                   {Mode::kBaseline80211, Mode::kEzFlow},
                                   summarize_windows(periods.windows())));
    return result;
}

}  // namespace

void register_scenario2_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "fig10", "figure",
        "end-to-end delay vs time, 3 crossing flows (scenario 2)",
        "Fig. 10 — 802.11: seconds-to-tens-of-seconds delays; EZ-flow: >=10x lower",
        "EZ-flow reduces every flow's delay by an order of magnitude in every period, and the "
        "final F1-alone period returns to the single-flow regime of scenario 1.",
        0.15, 8, 0.04, 2, run_fig10});
    registry.add(FigureSpec{
        "fig11", "figure",
        "contention windows at the flows' first nodes (scenario 2)",
        "Fig. 11 — sources self-throttle (2^7..2^10); first relays stay aggressive",
        "Each flow's source carries a much larger window than its first relay; windows grow "
        "when a new flow joins (period 2) and relax when traffic leaves (period 3).",
        0.15, 8, 0.04, 2, run_fig11});
    registry.add(FigureSpec{
        "table3", "table",
        "per-period throughput / stddev / fairness (scenario 2)",
        "Table 3 — EZ-flow: +62% cumulative throughput and FI 0.64 -> 0.80 in period 2",
        "Under 802.11 the crossing flows starve each other (low FI); EZ-flow lifts the starved "
        "flows, raises the cumulative throughput and the fairness index.",
        0.15, 8, 0.04, 2, run_table3});
}

}  // namespace ezflow::cli

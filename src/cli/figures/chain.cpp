// Fig. 1: relay-buffer evolution of 3- and 4-hop chains under plain
// IEEE 802.11 — the paper's motivating instability dichotomy.

#include "cli/figures.h"
#include "cli/figures_common.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

FigureResult run_fig01(const FigureContext& ctx)
{
    const double duration_s = 1800.0 * ctx.scale;
    const double warmup = 0.2 * duration_s;
    const std::vector<int> hop_counts = {3, 4};
    std::vector<SweepCell> cells;
    for (const int hops : hop_counts) {
        const auto measure = [hops, duration_s, warmup](Experiment& exp, RunResult& cell) {
            exp.run();
            cell.label = std::to_string(hops) + "-hop chain / IEEE 802.11";
            WindowResult& window = cell.add_window("settled");
            for (int n = 1; n < hops; ++n) {
                const std::string prefix = "N" + std::to_string(n);
                window.set(prefix + ".buf_mean",
                           metric_point(exp.buffers().mean(n, util::from_seconds(warmup),
                                                           util::from_seconds(duration_s + 5))));
                window.set(prefix + ".buf_max", metric_point(exp.buffers().max(n)));
                window.set(prefix + ".drops",
                           metric_point(static_cast<double>(
                               exp.network().node(n).forward_queue_drops())));
            }
            window.set("goodput_kbps",
                       metric_point(exp.summarize(0, warmup, duration_s).mean_kbps));
        };
        cells.push_back({ExperimentFactory(ScenarioSpec::line(hops, duration_s), {}), measure});
    }
    const auto sweeps = sweep_cells(ctx, cells);

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (Experiment* first = sweeps[c].first.get()) {
            std::vector<std::pair<std::string, util::TimeSeries>> series;
            for (int n = 1; n < hop_counts[c]; ++n)
                series.emplace_back("N" + std::to_string(n), first->buffers().trace(n));
            maybe_dump_series(ctx, "fig01_" + std::to_string(hop_counts[c]) + "hop", series);
        }
    }
    return result;
}

}  // namespace

void register_chain_figures()
{
    FigureRegistry::instance().add(FigureSpec{
        "fig01", "figure",
        "relay buffers, 3-hop vs 4-hop chain under 802.11",
        "Fig. 1 — 3-hop stable, 4-hop first relay saturates",
        "3-hop relay buffers stay bounded well below the 50-packet cap; the 4-hop chain's "
        "first relay rides the cap and drops packets.",
        0.12, 1, 0.03, 1, run_fig01});
}

}  // namespace ezflow::cli

// The A-MPDU aggregation family: the grid_gateway convergecast workload
// re-run at TXOP batch sizes K = 1, 4, 16, with and without EZ-Flow.
// K=1 sends one MPDU per access answered by a normal ACK (bit-identical
// to the grid_gateway figure); K>1 batches under a block-ack agreement —
// selective retransmit of the lost MPDUs, amortising one
// DIFS/backoff/BA exchange over a whole batch.

#include <vector>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "net/topo_gen.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

std::vector<int> gateway_flow_ids(int sources)
{
    std::vector<int> ids;
    for (int f = 1; f <= sources; ++f) ids.push_back(f);
    return ids;
}

FigureResult run_ampdu(const FigureContext& ctx)
{
    net::GridSpec grid;
    grid.cols = ctx.extra_int("cols", 5);
    grid.rows = ctx.extra_int("rows", 5);
    grid.sources = ctx.extra_int("sources", 4);
    grid.spacing_m = ctx.extra_double("spacing", grid.spacing_m);
    grid.cs_range_m = ctx.extra_double("cs-range", 0.0);
    grid.interference_range_m = ctx.extra_double("interference-range", 0.0);
    grid.duration_s = ctx.extra_double("duration", 120.0 * ctx.scale);
    const std::vector<SweepWindow> windows = {
        SweepWindow{"settled", grid.start_s + 0.3 * grid.duration_s,
                    grid.start_s + grid.duration_s, gateway_flow_ids(grid.sources)}};

    FigureResult result = make_result(ctx);
    for (const int k : {1, 4, 16}) {
        ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
        spec.ampdu_max_mpdus = k;
        // Cell labels stay distinct per batch size: scenario_name appends
        // "-k<K>" for K > 1, so the K=1 cells keep their plain labels.
        add_folded(result, sweep_modes(ctx, spec, {Mode::kBaseline80211, Mode::kEzFlow},
                                       summarize_windows(windows)));
    }
    return result;
}

}  // namespace

void register_ampdu_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "ampdu", "figure",
        "gateway convergecast at A-MPDU batch sizes K = 1, 4, 16",
        "802.11n-style frame aggregation applied to the EZ-flow relay workload",
        "Aggregation amortises contention overhead: aggregate throughput rises with K while "
        "per-packet airtime falls. EZ-flow's sniff-based control keeps working — the monitor "
        "radio sees every MSDU inside a batch — so fairness holds at every K. Extra flags: "
        "--cols, --rows, --sources, --spacing, --cs-range, --duration.",
        1.0, 2, 0.1, 2, run_ampdu});
}

}  // namespace ezflow::cli

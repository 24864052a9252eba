// The generated-topology figure family: cross-traffic grids and
// gateway convergecast in the style of Chan, Liew & Chan
// (arXiv:0704.0528), and a Leith et al. (arXiv:1002.1581) style
// per-flow-throughput / max-min sweep over parking-lot chains. These are
// the first workloads beyond the paper's own 9-node scenarios, opened up
// by the scheduler's event collapse and the O(1) per-flow routing table.

#include <algorithm>
#include <vector>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "net/topo_gen.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

/// All flow ids of a built scenario spec, 1..F by generator convention.
std::vector<int> flow_ids_upto(int flows)
{
    std::vector<int> ids;
    for (int f = 1; f <= flows; ++f) ids.push_back(f);
    return ids;
}

/// The settled window of a generated scenario (net of a 30% warmup).
std::vector<SweepWindow> settled_window(const net::GridSpec& grid, int flows)
{
    const double begin = grid.start_s + 0.3 * grid.duration_s;
    const double end = grid.start_s + grid.duration_s;
    return {SweepWindow{"settled", begin, end, flow_ids_upto(flows)}};
}

/// The flow-window measure plus, per window, the min and max flow
/// throughput and their ratio — the per-flow-throughput summary a max-min
/// study reports, taken per seed (unmeasured flows count as 0 kb/s).
SeedMeasure summarize_maxmin(const std::vector<SweepWindow>& windows)
{
    return [summarize = summarize_windows(windows), windows](Experiment& exp, RunResult& cell) {
        summarize(exp, cell);
        for (std::size_t w = 0; w < windows.size(); ++w) {
            WindowResult& window = cell.windows[w];
            double lo = 0.0;
            double hi = 0.0;
            for (std::size_t f = 0; f < windows[w].flow_ids.size(); ++f) {
                const double kbps =
                    window.find("F" + std::to_string(windows[w].flow_ids[f]) + ".kbps")->mean;
                lo = f == 0 ? kbps : std::min(lo, kbps);
                hi = f == 0 ? kbps : std::max(hi, kbps);
            }
            window.set("min_flow_kbps", metric_point(lo));
            window.set("max_flow_kbps", metric_point(hi));
            window.set("maxmin_ratio", metric_point(hi > 0 ? lo / hi : 1.0));
        }
    };
}

net::GridSpec grid_spec_from(const FigureContext& ctx, int default_cols, int default_rows)
{
    net::GridSpec grid;
    grid.cols = ctx.extra_int("cols", default_cols);
    grid.rows = ctx.extra_int("rows", default_rows);
    grid.spacing_m = ctx.extra_double("spacing", grid.spacing_m);
    grid.cs_range_m = ctx.extra_double("cs-range", 0.0);
    grid.interference_range_m = ctx.extra_double("interference-range", 0.0);
    grid.duration_s = ctx.extra_double("duration", 120.0 * ctx.scale);
    return grid;
}

void append_mode_cells(FigureResult& result, const FigureContext& ctx, const ScenarioSpec& spec,
                       const std::vector<SweepWindow>& windows, bool maxmin)
{
    const SeedMeasure measure = maxmin ? summarize_maxmin(windows) : summarize_windows(windows);
    add_folded(result, sweep_modes(ctx, spec, {Mode::kBaseline80211, Mode::kEzFlow}, measure));
}

// -- grid_cross: crossing row/column flows over an N x M lattice ---------

FigureResult run_grid_cross(const FigureContext& ctx)
{
    net::GridSpec grid = grid_spec_from(ctx, 5, 5);
    grid.cross_flows = ctx.extra_int("flows", 4);
    FigureResult result = make_result(ctx);
    append_mode_cells(result, ctx, ScenarioSpec::grid_cross(grid),
                      settled_window(grid, grid.cross_flows), /*maxmin=*/false);
    return result;
}

// -- grid_gateway: edge sources converging on the corner gateway ---------

FigureResult run_grid_gateway(const FigureContext& ctx)
{
    net::GridSpec grid = grid_spec_from(ctx, 5, 5);
    grid.sources = ctx.extra_int("sources", 4);
    FigureResult result = make_result(ctx);
    append_mode_cells(result, ctx, ScenarioSpec::grid_gateway(grid),
                      settled_window(grid, grid.sources), /*maxmin=*/false);
    return result;
}

// -- grid_maxmin: per-flow throughput over parking-lot chains ------------

FigureResult run_grid_maxmin(const FigureContext& ctx)
{
    const int hops = ctx.extra_int("hops", 8);
    const double duration_s = ctx.extra_double("duration", 120.0 * ctx.scale);
    FigureResult result = make_result(ctx);
    for (const int flows : {2, 4}) {
        const ScenarioSpec spec = ScenarioSpec::parking_lot(hops, flows, duration_s);
        const std::vector<SweepWindow> windows = {
            SweepWindow{"settled", spec.lot_start_s + 0.3 * duration_s,
                        spec.lot_start_s + duration_s, flow_ids_upto(flows)}};
        append_mode_cells(result, ctx, spec, windows, /*maxmin=*/true);
    }
    return result;
}

// -- islands: disconnected grid islands, one shard each ------------------

FigureResult run_islands(const FigureContext& ctx)
{
    net::IslandsSpec islands;
    islands.islands = ctx.extra_int("islands", 4);
    islands.cols = ctx.extra_int("cols", 4);
    islands.rows = ctx.extra_int("rows", 4);
    islands.sources = ctx.extra_int("sources", 2);
    islands.spacing_m = ctx.extra_double("spacing", islands.spacing_m);
    islands.gap_m = ctx.extra_double("gap", islands.gap_m);
    islands.duration_s = ctx.extra_double("duration", 60.0 * ctx.scale);
    // Default to one shard per island so every run (including CI smoke)
    // exercises the sharded engine; results are byte-identical to serial.
    islands.max_shards = islands.islands;
    const int flows = islands.islands * islands.sources;
    const std::vector<SweepWindow> windows = {
        SweepWindow{"settled", islands.start_s + 0.3 * islands.duration_s,
                    islands.start_s + islands.duration_s, flow_ids_upto(flows)}};
    FigureResult result = make_result(ctx);
    append_mode_cells(result, ctx, ScenarioSpec::islands_spec(islands), windows,
                      /*maxmin=*/false);
    return result;
}

}  // namespace

void register_grid_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "grid_cross", "figure",
        "crossing row/column flows over a generated N x M grid",
        "the cross-traffic grid workload of Chan, Liew & Chan (arXiv:0704.0528)",
        "Plain 802.11 lets the crossing flows starve each other at the shared relays; EZ-flow "
        "keeps every flow moving and lifts Jain's index toward 1. Extra flags: --cols, --rows, "
        "--flows, --spacing, --cs-range, --duration.",
        1.0, 2, 0.1, 2, run_grid_cross});
    registry.add(FigureSpec{
        "grid_gateway", "figure",
        "edge sources converging on a corner gateway of a generated grid",
        "the convergecast backhaul pattern of mesh access networks",
        "All flows funnel into the gateway's one-hop neighbourhood; 802.11 starves the "
        "longest paths while EZ-flow balances the merge. Extra flags: --cols, --rows, "
        "--sources, --spacing, --cs-range, --duration.",
        1.0, 2, 0.1, 2, run_grid_gateway});
    registry.add(FigureSpec{
        "grid_maxmin", "figure",
        "per-flow throughput / max-min ratio over parking-lot chains",
        "the max-min fairness study style of Leith et al. (arXiv:1002.1581)",
        "With 802.11 the long flow's share collapses as entry flows are added "
        "(maxmin_ratio -> 0); EZ-flow holds the ratio up without any message passing. "
        "Extra flags: --hops, --duration.",
        1.0, 2, 0.1, 2, run_grid_maxmin});
    registry.add(FigureSpec{
        "islands", "figure",
        "disconnected grid islands partitioned one shard per island",
        "the space-parallel sharded engine's embarrassingly-parallel case",
        "Each island is an independent convergecast grid; the conflict-graph partitioner "
        "assigns one shard per island and the sharded engine runs them on the thread pool. "
        "Figure JSON is byte-identical to the serial engine (--shards=1). Extra flags: "
        "--islands, --cols, --rows, --sources, --spacing, --gap, --duration.",
        1.0, 2, 0.1, 2, run_islands});
}

}  // namespace ezflow::cli

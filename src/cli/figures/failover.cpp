// The failover figure family: node-death and revival mid-run on the 7x7
// convergecast grid, driven by the deterministic fault injector. Measures
// how deep goodput dips during the outage, how fast the network
// re-converges after revival, and how many packets the fault strands —
// EZ-Flow against plain 802.11, exercising graceful teardown and the
// incremental route repair end to end.

#include <algorithm>
#include <vector>

#include "analysis/drop_audit.h"
#include "cli/figures.h"
#include "cli/figures_common.h"
#include "net/topo_gen.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

/// The shared timeline: fault at 35% of the active period, revival at
/// 65%, so every run has comparable pre-fault / outage / recovery spans.
struct FailoverTimeline {
    double start_s;
    double end_s;
    double down_s;  ///< fault instant
    double up_s;    ///< revival instant

    FailoverTimeline(const net::GridSpec& grid)
        : start_s(grid.start_s),
          end_s(grid.start_s + grid.duration_s),
          down_s(grid.start_s + 0.35 * grid.duration_s),
          up_s(grid.start_s + 0.65 * grid.duration_s)
    {
    }

    std::vector<SweepWindow> windows(int flows) const
    {
        std::vector<int> ids;
        for (int f = 1; f <= flows; ++f) ids.push_back(f);
        // Pre-fault net of a warmup; outage and recovery exactly as the
        // fault plan carves them.
        return {
            SweepWindow{"pre-fault", start_s + 0.4 * (down_s - start_s), down_s, ids},
            SweepWindow{"outage", down_s, up_s, ids},
            SweepWindow{"recovery", up_s, end_s, ids},
        };
    }
};

/// Re-convergence time: the first instant after revival at which a
/// sliding window's aggregate goodput regains 70% of the pre-fault rate,
/// scanned on a fine grid. Capped at the end of the run when the network
/// never recovers.
double reconvergence_time_s(Experiment& experiment, const std::vector<int>& flow_ids,
                            const FailoverTimeline& timeline, double pre_fault_kbps)
{
    const double horizon = timeline.end_s - timeline.up_s;
    if (horizon <= 0.0 || pre_fault_kbps <= 0.0) return 0.0;
    const double step = horizon / 40.0;
    for (int k = 0; k < 40; ++k) {
        const double from = timeline.up_s + k * step;
        double aggregate = 0.0;
        for (int flow : flow_ids)
            aggregate += experiment.summarize(flow, from, from + step).mean_kbps;
        if (aggregate >= 0.7 * pre_fault_kbps) return k * step;
    }
    return horizon;
}

/// The flow-window measure plus the failover metrics of one seed:
/// goodput dip depth, re-convergence time, stranded packets, and the
/// injector's repair counters.
SeedMeasure measure_failover(const std::vector<SweepWindow>& windows,
                             const FailoverTimeline& timeline, const std::string& victim_label)
{
    return [summarize = summarize_windows(windows), flow_ids = windows[0].flow_ids, timeline,
            victim_label](Experiment& experiment, RunResult& cell) {
        summarize(experiment, cell);
        cell.label += " / " + victim_label;
        const auto aggregate_kbps = [&cell](std::size_t w) {
            return cell.windows[w].find("aggregate_kbps")->mean;
        };
        const double pre = aggregate_kbps(0);
        const double reconv_s = reconvergence_time_s(experiment, flow_ids, timeline, pre);
        const DropLedger ledger = collect_drop_ledger(experiment);
        double retries = 0.0;
        for (const auto& source : experiment.sources())
            retries += static_cast<double>(source->stats().backoff_retries);
        const sim::FaultInjector::Stats& repairs = experiment.fault_injector()->stats();

        WindowResult& outage = cell.windows[1];
        outage.set("goodput_dip_ratio", metric_point(pre > 0.0 ? aggregate_kbps(1) / pre : 1.0));
        outage.set("stranded_packets",
                   metric_point(static_cast<double>(ledger.drops_node_down +
                                                    ledger.drops_unroutable)));
        outage.set("source_backoff_retries", metric_point(retries));
        outage.set("flows_rerouted", metric_point(static_cast<double>(repairs.flows_rerouted)));
        outage.set("flows_suspended", metric_point(static_cast<double>(repairs.flows_suspended)));
        WindowResult& recovery = cell.windows[2];
        recovery.set("reconv_time_s", metric_point(reconv_s));
        recovery.set("recovery_ratio", metric_point(pre > 0.0 ? aggregate_kbps(2) / pre : 1.0));
        recovery.set("flows_restored", metric_point(static_cast<double>(repairs.flows_restored)));
    };
}

FigureResult run_failover(const FigureContext& ctx, net::NodeId victim,
                          const std::string& victim_label)
{
    net::GridSpec grid;
    grid.cols = ctx.extra_int("cols", 7);
    grid.rows = ctx.extra_int("rows", 7);
    grid.sources = ctx.extra_int("sources", 4);
    grid.duration_s = ctx.extra_double("duration", 120.0 * ctx.scale);
    const FailoverTimeline timeline(grid);

    ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
    spec.faults.node_down(timeline.down_s, victim).node_up(timeline.up_s, victim);
    if (ctx.shards > 0) spec.shards = ctx.shards;

    const SeedMeasure measure = measure_failover(timeline.windows(grid.sources), timeline,
                                                 victim_label);
    // Not sweep_modes: failover windows are fractions of the active
    // period, so the goodput meter must resolve well below the default
    // 10 s window or a smoke-scaled outage holds no samples at all.
    std::vector<SweepCell> cells;
    for (Mode mode : {Mode::kBaseline80211, Mode::kEzFlow}) {
        ExperimentOptions options;
        options.mode = mode;
        options.streaming = ctx.streaming;
        options.throughput_window =
            std::max<util::SimTime>(util::from_seconds(grid.duration_s / 60.0), 1);
        cells.push_back({ExperimentFactory(spec, options), measure});
    }
    const auto sweeps = sweep_cells(ctx, cells);

    FigureResult result = make_result(ctx);
    add_folded(result, sweeps);
    for (std::size_t m = 0; m < sweeps.size(); ++m) {
        if (Experiment* first = sweeps[m].first.get()) {
            // First-seed per-flow goodput timeline: the dip-and-recovery
            // curve the figure's windowed numbers summarize.
            std::vector<std::pair<std::string, const util::TimeSeries*>> series;
            for (int f = 1; f <= grid.sources; ++f)
                series.emplace_back("F" + std::to_string(f), &first->throughput(f).series());
            maybe_dump_series(ctx,
                              ctx.spec->name + std::string(m == 0 ? "_80211" : "_ezflow"),
                              series);
        }
    }
    return result;
}

FigureResult run_failover_gateway(const FigureContext& ctx)
{
    // Killing the gateway partitions every flow from its destination: all
    // flows suspend, goodput collapses to zero, sources pause on backoff,
    // and revival must restore every original path exactly.
    return run_failover(ctx, 0, "gateway down");
}

FigureResult run_failover_relay(const FigureContext& ctx)
{
    // Node 1 is the gateway's row neighbour — under the planner's
    // smallest-id downhill routing nearly every convergecast path funnels
    // through it, so its death forces incremental repair onto same-length
    // detours through the second row while traffic keeps flowing.
    return run_failover(ctx, 1, "relay down");
}

}  // namespace

void register_failover_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "failover_gateway", "figure",
        "gateway death and revival mid-run on the convergecast grid",
        "fault injection / churn robustness (beyond the paper's static runs)",
        "The outage suspends every flow (goodput_dip_ratio -> 0, sources pause on backoff); "
        "revival restores all original paths and goodput re-converges. EZ-flow recovers its "
        "pre-fault balance without message passing. Extra flags: --cols, --rows, --sources, "
        "--duration.",
        1.0, 2, 0.1, 2, run_failover_gateway});
    registry.add(FigureSpec{
        "failover_relay", "figure",
        "arterial relay death on the convergecast grid, incremental reroute",
        "fault injection / churn robustness (beyond the paper's static runs)",
        "The incremental repair steers flows onto same-length detours (flows_rerouted > 0, "
        "flows_suspended = 0) so the dip is shallow; revival restores the original paths. "
        "Extra flags: --cols, --rows, --sources, --duration.",
        1.0, 2, 0.1, 2, run_failover_relay});
}

}  // namespace ezflow::cli

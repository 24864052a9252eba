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

/// Custom failover metrics, aggregated across the kept per-seed
/// experiments: goodput dip depth, re-convergence time, stranded
/// packets, and the injector's repair counters.
void add_failover_metrics(RunResult& cell, const SweepResult& sweep,
                          const std::vector<SweepWindow>& windows,
                          const FailoverTimeline& timeline)
{
    util::RunningStats dip_ratio, recovery_ratio, reconv_s, stranded, backoffs;
    util::RunningStats rerouted, suspended, restored;
    for (std::size_t s = 0; s < sweep.per_seed.size(); ++s) {
        const SeedResult& seed = sweep.per_seed[s];
        const double pre = seed.windows[0].aggregate_kbps;
        dip_ratio.add(pre > 0.0 ? seed.windows[1].aggregate_kbps / pre : 1.0);
        recovery_ratio.add(pre > 0.0 ? seed.windows[2].aggregate_kbps / pre : 1.0);

        Experiment& experiment = *sweep.experiments[s];
        reconv_s.add(reconvergence_time_s(experiment, windows[0].flow_ids, timeline, pre));
        const DropLedger ledger = collect_drop_ledger(experiment);
        stranded.add(static_cast<double>(ledger.drops_node_down + ledger.drops_unroutable));
        double retries = 0.0;
        for (const auto& source : experiment.sources())
            retries += static_cast<double>(source->stats().backoff_retries);
        backoffs.add(retries);
        const sim::FaultInjector* injector = experiment.fault_injector();
        rerouted.add(static_cast<double>(injector->stats().flows_rerouted));
        suspended.add(static_cast<double>(injector->stats().flows_suspended));
        restored.add(static_cast<double>(injector->stats().flows_restored));
    }
    WindowResult& outage = cell.windows[1];
    outage.set("goodput_dip_ratio", metric_from_stats(dip_ratio));
    outage.set("stranded_packets", metric_from_stats(stranded));
    outage.set("source_backoff_retries", metric_from_stats(backoffs));
    outage.set("flows_rerouted", metric_from_stats(rerouted));
    outage.set("flows_suspended", metric_from_stats(suspended));
    WindowResult& recovery = cell.windows[2];
    recovery.set("reconv_time_s", metric_from_stats(reconv_s));
    recovery.set("recovery_ratio", metric_from_stats(recovery_ratio));
    recovery.set("flows_restored", metric_from_stats(restored));
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

    const std::vector<SweepWindow> windows = timeline.windows(grid.sources);
    FigureResult result = make_result(ctx);
    // Not sweep_modes: failover windows are fractions of the active
    // period, so the goodput meter must resolve well below the default
    // 10 s window or a smoke-scaled outage holds no samples at all.
    if (ctx.shards > 0) spec.shards = ctx.shards;
    std::vector<ExperimentFactory> cells;
    for (Mode mode : {Mode::kBaseline80211, Mode::kEzFlow}) {
        ExperimentOptions options;
        options.mode = mode;
        options.streaming = ctx.streaming;
        options.throughput_window =
            std::max<util::SimTime>(util::from_seconds(grid.duration_s / 60.0), 1);
        cells.emplace_back(spec, options);
    }
    SweepConfig config;
    config.windows = windows;
    config.seeds = ctx.seed_grid();
    config.keep_experiments = true;
    const auto sweeps = SweepRunner(ctx.threads).run_grid(cells, config);
    for (std::size_t m = 0; m < sweeps.size(); ++m) {
        const SweepResult& sweep = sweeps[m];
        RunResult cell = run_result_from_sweep(sweep, windows);
        cell.label += " / " + victim_label;
        add_failover_metrics(cell, sweep, windows, timeline);
        result.cells.push_back(std::move(cell));
        if (!sweep.experiments.empty()) {
            // First-seed per-flow goodput timeline: the dip-and-recovery
            // curve the figure's windowed numbers summarize.
            Experiment& first = *sweep.experiments.front();
            std::vector<std::pair<std::string, const util::TimeSeries*>> series;
            for (int f = 1; f <= grid.sources; ++f)
                series.emplace_back("F" + std::to_string(f), &first.throughput(f).series());
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

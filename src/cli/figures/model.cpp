// Model figures (Fig. 12 / Theorem 1, Table 4): the Section 6 slotted
// random walk, driven without any packet-level simulation.

#include <algorithm>
#include <functional>
#include <map>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "model/lyapunov.h"
#include "model/region.h"
#include "model/table4.h"
#include "model/walk.h"
#include "util/parallel.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

/// The model figures' seed sweep: `run_seed` draws every cell of the
/// figure from its seed; the seeds of the context run on util::parallel_for
/// (--threads) and each cell is folded across them.
FigureResult fold_model_seeds(const FigureContext& ctx,
                              const std::function<std::vector<RunResult>(std::uint64_t)>& run_seed)
{
    const std::vector<std::uint64_t> seeds = ctx.seed_grid();
    std::vector<std::vector<RunResult>> per_seed(seeds.size());
    util::parallel_for(static_cast<int>(seeds.size()), ctx.threads, [&](int s) {
        per_seed[static_cast<std::size_t>(s)] = run_seed(seeds[static_cast<std::size_t>(s)]);
    });
    FigureResult result = make_result(ctx);
    for (std::size_t c = 0; c < per_seed.front().size(); ++c) {
        std::vector<RunResult> cell;
        for (std::vector<RunResult>& cells : per_seed) cell.push_back(std::move(cells[c]));
        result.cells.push_back(fold_seeds(cell));
    }
    return result;
}

std::vector<RunResult> fig12_seed(double scale, std::uint64_t seed)
{
    std::vector<RunResult> cells;

    // (i) trajectories of the total backlog h(b) with fixed equal windows
    // (divergent) vs EZ-Flow dynamics (bounded).
    const std::uint64_t slots = static_cast<std::uint64_t>(300000 * std::max(scale, 0.05));
    for (const bool ezflow : {false, true}) {
        model::RandomWalkModel::Config config;
        config.hops = 4;
        config.ezflow_enabled = ezflow;
        if (!ezflow) config.initial_cw = {32, 32, 32, 32};
        model::RandomWalkModel walk(config, util::Rng(seed));
        RunResult& cell = cells.emplace_back();
        cell.label = ezflow ? "EZ-flow (Eq. 2)" : "fixed cw = 32";
        WindowResult& window = cell.add_window("trajectory");
        const char* quarter_names[] = {"h_q1", "h_q2", "h_q3", "h_end"};
        for (int quarter = 0; quarter < 4; ++quarter) {
            walk.run(slots / 4);
            window.set(quarter_names[quarter],
                       metric_point(static_cast<double>(walk.total_backlog())));
        }
        window.set("delivered", metric_point(static_cast<double>(walk.delivered())));
    }

    // (ii) the Foster-Lyapunov drift per region with the paper's
    // look-ahead horizons, which must be negative outside the finite set S.
    model::RandomWalkModel::Config config;
    config.hops = 4;
    config.ezflow_enabled = true;
    model::LyapunovEstimator estimator(config, {1 << 9, 1 << 4, 1 << 4, 1 << 4},
                                       util::Rng(seed));
    const long long big = 60;
    const std::vector<std::pair<int, model::BufferVector>> states = {
        {model::kRegionB, {big, 0, 0}},   {model::kRegionC, {0, big, 0}},
        {model::kRegionD, {0, 0, big}},   {model::kRegionE, {big, big, 0}},
        {model::kRegionF, {big, 0, big}}, {model::kRegionG, {0, big, big}},
        {model::kRegionH, {big, big, big}},
    };
    const int samples = static_cast<int>(8000 * std::max(scale, 0.05));
    RunResult& drift_cell = cells.emplace_back();
    drift_cell.label = "Foster-Lyapunov drift";
    for (const auto& [region, relays] : states) {
        const int k = model::LyapunovEstimator::paper_horizon(region);
        const auto d = estimator.estimate(relays, k, samples);
        WindowResult& window = drift_cell.add_window("region " + model::region_name(region, 3));
        window.set("horizon_k", metric_point(k));
        window.set("mean_drift", metric_point(d.mean_drift));
        window.set("stderr_drift", metric_point(d.stderr_drift));
        window.set("stable", metric_point(d.mean_drift + 2 * d.stderr_drift < 0.05 ? 1.0 : 0.0));
    }
    return cells;
}

FigureResult run_fig12(const FigureContext& ctx)
{
    return fold_model_seeds(ctx,
                            [&ctx](std::uint64_t seed) { return fig12_seed(ctx.scale, seed); });
}

std::string pattern_key(const std::vector<int>& z)
{
    std::string key = "z";
    for (int bit : z) key += static_cast<char>('0' + bit);
    return key;
}

RunResult table4_cell(double scale, std::uint64_t seed, const std::vector<double>& cw,
                      const char* cw_label)
{
    RunResult cell;
    cell.label = cw_label;

    model::RandomWalkModel::Config config;
    config.hops = 4;
    model::RandomWalkModel sampler(config, util::Rng(seed));

    const int n = static_cast<int>(50000 * std::max(scale, 0.02));
    for (int region = 0; region < 8; ++region) {
        model::BufferVector relays = {0, 0, 0};
        for (int i = 0; i < 3; ++i)
            if (region & (1 << i)) relays[static_cast<std::size_t>(i)] = 5;

        std::map<std::string, int> counts;
        for (int i = 0; i < n; ++i) ++counts[pattern_key(sampler.sample_pattern(relays, cw))];

        WindowResult& window = cell.add_window("region " + model::region_name(region, 3));
        for (const model::Pattern& p : model::table4_distribution(region, cw)) {
            const std::string key = pattern_key(p.z);
            const double observed = counts.count(key) ? counts[key] / double(n) : 0.0;
            window.set(key + ".closed_form", metric_point(p.probability));
            window.set(key + ".monte_carlo", metric_point(observed));
        }
    }
    return cell;
}

FigureResult run_table4(const FigureContext& ctx)
{
    return fold_model_seeds(ctx, [&ctx](std::uint64_t seed) {
        return std::vector<RunResult>{
            table4_cell(ctx.scale, seed, {32, 32, 32, 32}, "cw = (32 32 32 32) [plain 802.11]"),
            table4_cell(ctx.scale, seed, {512, 16, 16, 16},
                        "cw = (512 16 16 16) [EZ-flow stable]")};
    });
}

}  // namespace

void register_model_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "fig12", "figure",
        "random-walk stability of the 4-hop model",
        "Fig. 12 / Theorem 1 — EZ-flow keeps the walk near the origin",
        "The fixed-window walk's backlog grows roughly linearly in time (instability of [9]); "
        "the EZ-flow walk stays within tens of packets, and the per-region drifts of h are "
        "negative — Foster's criterion, i.e. Theorem 1.",
        1.0, 1, 0.05, 1, run_fig12});
    registry.add(FigureSpec{
        "table4", "table",
        "pattern distribution per region of the slotted model",
        "Table 4 — closed forms vs the generative race/interference process",
        "Monte-Carlo matches the closed forms in every region; with the EZ-flow window vector "
        "the source-favouring patterns lose most of their probability mass.",
        1.0, 1, 0.02, 1, run_table4});
}

}  // namespace ezflow::cli

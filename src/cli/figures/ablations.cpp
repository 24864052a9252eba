// Ablation studies: the modelling and parameter sensitivity checks that
// back the paper's design arguments. Ported from the former standalone
// bench mains; each produces a structured FigureResult.

#include <algorithm>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "net/topologies.h"
#include "util/table.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

// -- ablation_pacer: CWmin control vs routing-layer rate pacing ----------

FigureResult run_ablation_pacer(const FigureContext& ctx)
{
    const double duration_s = 4000.0 * ctx.scale;
    const double from = 0.5 * duration_s;
    const auto buffer_b1 = [from, duration_s](Experiment& exp) {
        return metric_point(exp.buffers().mean(1, util::from_seconds(from),
                                               util::from_seconds(duration_s)));
    };
    std::vector<SweepCell> cells;
    for (const Mode mode : {Mode::kBaseline80211, Mode::kEzFlow}) {
        ExperimentOptions options;
        options.mode = mode;
        const auto measure = [=](Experiment& exp, RunResult& cell) {
            exp.run();
            const auto summary = exp.summarize(0, from, duration_s);
            cell.label = mode_name(mode);
            WindowResult& window = cell.add_window("settled");
            window.set("goodput_kbps", metric_point(summary.mean_kbps));
            window.set("mac_b1", buffer_b1(exp));
            window.set("delay_s", metric_point(summary.mean_delay_s));
        };
        cells.push_back({ExperimentFactory(ScenarioSpec::line(4, duration_s), options), measure});
    }

    ExperimentOptions paced;
    paced.mode = Mode::kPaced;
    const auto build_paced = [duration_s](std::uint64_t seed) {
        return net::make_chain(net::testbed_config(seed), 4, 200.0, 5.0, duration_s);
    };
    const auto measure_paced = [=](Experiment& exp, RunResult& cell) {
        exp.run_until_s(duration_s);
        cell.label = mode_name(Mode::kPaced);
        WindowResult& window = cell.add_window("settled");
        window.set("goodput_kbps",
                   metric_point(exp.sink().goodput_kbps(0, util::from_seconds(from),
                                                        util::from_seconds(duration_s))));
        window.set("mac_b1", buffer_b1(exp));
        window.set("delay_s", metric_point(exp.summarize(0, from, duration_s).mean_delay_s));
    };
    cells.push_back({ExperimentFactory("paced chain", build_paced, paced), measure_paced});

    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_penalty_q: static penalty of [9] vs self-tuning EZ-Flow ----

FigureResult run_ablation_penalty_q(const FigureContext& ctx)
{
    const double duration_s = 4000.0 * ctx.scale;
    const double warmup = 0.4 * duration_s;
    std::vector<SweepCell> cells;
    for (const int hops : {3, 4, 5}) {
        const auto add = [&](const std::string& window_label, Mode mode, double q) {
            ExperimentOptions options;
            options.mode = mode;
            options.penalty.relay_cw = 1 << 4;
            options.penalty.q = q;
            const auto measure = [=](Experiment& exp, RunResult& cell) {
                exp.run();
                double b_worst = 0.0;
                for (int n = 1; n < hops; ++n)
                    b_worst = std::max(b_worst, exp.buffers().mean(
                                                    n, util::from_seconds(warmup),
                                                    util::from_seconds(duration_s + 5)));
                cell.label = std::to_string(hops) + "-hop chain";
                WindowResult& window = cell.add_window(window_label);
                window.set("b_worst", metric_point(b_worst));
                window.set("goodput_kbps",
                           metric_point(exp.summarize(0, warmup, duration_s).mean_kbps));
            };
            cells.push_back(
                {ExperimentFactory(ScenarioSpec::line(hops, duration_s), options), measure});
        };
        for (const double q : {1.0, 1.0 / 4.0, 1.0 / 16.0, 1.0 / 64.0})
            add("penalty q=1/" + std::to_string(int(1.0 / q)), Mode::kPenalty, q);
        add("EZ-flow (self-tuned)", Mode::kEzFlow, 1.0);
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_phy_capture: SIR capture vs the Fig. 1 dichotomy -----------

FigureResult run_ablation_phy_capture(const FigureContext& ctx)
{
    const double duration_s = 1800.0 * ctx.scale;
    const util::SimTime from = util::from_seconds(0.4 * duration_s);
    const util::SimTime to = util::from_seconds(duration_s);
    std::vector<SweepCell> cells;
    for (const double threshold : {10.0, 1e9}) {
        const std::string label = threshold < 1e6 ? "capture 10 dB (ns-2)" : "capture disabled";
        for (const int hops : {3, 4}) {
            const auto build = [=](std::uint64_t seed) {
                net::Network::Config config = net::testbed_config(seed);
                config.phy.capture_threshold = threshold;
                return net::make_chain(config, hops, 200.0, 5.0, duration_s);
            };
            const auto measure = [=](Experiment& exp, RunResult& cell) {
                exp.run_until_s(duration_s);
                cell.label = label;
                WindowResult& window = cell.add_window(std::to_string(hops) + "-hop");
                window.set("b1", metric_point(exp.buffers().mean(1, from, to)));
                window.set("b_last", metric_point(exp.buffers().mean(hops - 1, from, to)));
                window.set("goodput_kbps", metric_point(exp.sink().goodput_kbps(0, from, to)));
            };
            cells.push_back({ExperimentFactory(label, build, {}), measure});
        }
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_rtscts: is RTS/CTS an alternative to EZ-Flow? --------------

FigureResult run_ablation_rtscts(const FigureContext& ctx)
{
    const double duration_s = 3000.0 * ctx.scale;
    const util::SimTime from = util::from_seconds(0.4 * duration_s);
    const util::SimTime to = util::from_seconds(duration_s);
    struct Variant {
        const char* label;
        bool rts;
        bool ezflow;
    };
    std::vector<SweepCell> cells;
    for (const double cs : {550.0, 250.0}) {
        const std::string label = cs > 400 ? "CS ns-2 (550 m)" : "CS testbed (1-hop)";
        for (const Variant v : {Variant{"802.11 basic", false, false},
                                Variant{"802.11 + RTS/CTS", true, false},
                                Variant{"EZ-flow (no RTS)", false, true}}) {
            const auto build = [=](std::uint64_t seed) {
                net::Network::Config config = net::default_config(seed);
                config.phy.cs_range_m = cs;
                config.mac.rts_cts_enabled = v.rts;
                return net::make_chain(config, 4, 200.0, 5.0, duration_s);
            };
            ExperimentOptions options;
            options.mode = v.ezflow ? Mode::kEzFlow : Mode::kBaseline80211;
            const auto measure = [=](Experiment& exp, RunResult& cell) {
                exp.run_until_s(duration_s);
                cell.label = label;
                WindowResult& window = cell.add_window(v.label);
                window.set("goodput_kbps", metric_point(exp.sink().goodput_kbps(0, from, to)));
                window.set("b1", metric_point(exp.buffers().mean(1, from, to)));
            };
            cells.push_back({ExperimentFactory(label, build, options), measure});
        }
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_sample_window: CAA decision window sweep -------------------

FigureResult run_ablation_sample_window(const FigureContext& ctx)
{
    const double duration_s = 6000.0 * ctx.scale;
    const double warmup = 0.15 * duration_s;
    // F2 joins for the middle third of the run.
    const ScenarioSpec spec =
        ScenarioSpec::testbed(5.0, duration_s, duration_s / 3.0, 2.0 * duration_s / 3.0);
    std::vector<SweepCell> cells;
    for (const int sample_window : {5, 20, 50, 200, 1000}) {
        ExperimentOptions options;
        options.mode = Mode::kEzFlow;
        options.caa.sample_window = sample_window;
        const auto measure = [=](Experiment& exp, RunResult& cell) {
            exp.run_until_s(duration_s);
            const auto summary = exp.summarize(1, warmup, duration_s);
            std::uint64_t changes = 0;
            if (const auto* agent = exp.agent(0))
                for (const auto& [succ, state] : agent->successors())
                    changes += state->caa->increases() + state->caa->decreases();
            cell.label = "4-hop + joining flow";
            WindowResult& window = cell.add_window("window " + std::to_string(sample_window));
            window.set("b1", metric_point(exp.buffers().mean(1, util::from_seconds(warmup),
                                                             util::from_seconds(duration_s))));
            window.set("goodput_kbps", metric_point(summary.mean_kbps));
            window.set("delay_s", metric_point(summary.mean_delay_s));
            window.set("cw_changes", metric_point(static_cast<double>(changes)));
        };
        cells.push_back({ExperimentFactory(spec, options), measure});
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_sniff_loss: robustness of the BOE to missed sniffs ---------

FigureResult run_ablation_sniff_loss(const FigureContext& ctx)
{
    const double duration_s = 6000.0 * ctx.scale;
    const double warmup = 0.4 * duration_s;
    std::vector<SweepCell> cells;
    for (const double loss : {0.0, 0.5, 0.8, 0.95}) {
        ExperimentOptions options;
        options.mode = Mode::kEzFlow;
        options.boe_sniff_loss = loss;
        const auto measure = [=](Experiment& exp, RunResult& cell) {
            exp.run();
            const auto summary = exp.summarize(0, warmup, duration_s);
            const auto* agent = exp.agent(0);
            cell.label = "4-hop chain / EZ-flow";
            WindowResult& window = cell.add_window("loss " + util::Table::num(loss, 2));
            window.set("b1", metric_point(exp.buffers().mean(1, util::from_seconds(warmup),
                                                             util::from_seconds(duration_s + 5))));
            window.set("goodput_kbps", metric_point(summary.mean_kbps));
            window.set("delay_s", metric_point(summary.mean_delay_s));
            window.set("source_cw", metric_point(agent != nullptr ? agent->cw_toward(1) : -1));
        };
        cells.push_back({ExperimentFactory(ScenarioSpec::line(4, duration_s), options), measure});
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

// -- ablation_thresholds: bmin/bmax sensitivity --------------------------

FigureResult run_ablation_thresholds(const FigureContext& ctx)
{
    const double duration_s = 600.0 * ctx.scale * 10.0;  // default scale 0.1 -> 600 s
    const double warmup = 0.4 * duration_s;
    std::vector<SweepCell> cells;
    for (const double bmin : {0.05, 0.5, 2.0}) {
        for (const double bmax : {10.0, 20.0, 40.0}) {
            ExperimentOptions options;
            options.mode = Mode::kEzFlow;
            options.caa.bmin = bmin;
            options.caa.bmax = bmax;
            const auto measure = [=](Experiment& exp, RunResult& cell) {
                exp.run();
                const auto summary = exp.summarize(0, warmup, duration_s);
                cell.label = "bmin " + util::Table::num(bmin, 2);
                WindowResult& window = cell.add_window("bmax " + util::Table::num(bmax, 0));
                window.set("b1", metric_point(exp.buffers().mean(
                                     1, util::from_seconds(warmup),
                                     util::from_seconds(duration_s + 5))));
                window.set("goodput_kbps", metric_point(summary.mean_kbps));
                window.set("delay_s", metric_point(summary.mean_delay_s));
            };
            cells.push_back(
                {ExperimentFactory(ScenarioSpec::line(4, duration_s), options), measure});
        }
    }
    FigureResult result = make_result(ctx);
    add_folded(result, sweep_cells(ctx, cells));
    return result;
}

}  // namespace

void register_ablation_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "ablation_pacer", "ablation", "CWmin control vs routing-layer rate pacing",
        "Conclusion — the pacing variant for dense neighbourhoods",
        "Both EZ-flow variants drain the first relay's MAC buffer that plain 802.11 saturates; "
        "the paced variant keeps its backlog in the routing layer without touching the MAC.",
        0.1, 1, 0.02, 1, run_ablation_pacer});
    registry.add(FigureSpec{
        "ablation_penalty_q", "ablation", "static penalty of [9] vs self-tuning EZ-Flow",
        "Sec. 2.3 — q is topology-dependent; EZ-flow discovers it online",
        "No single q works everywhere — q = 1 saturates relays, very small q wastes capacity "
        "on short chains. EZ-flow matches the best static q per topology without knowing it.",
        0.1, 1, 0.015, 1, run_ablation_penalty_q});
    registry.add(FigureSpec{
        "ablation_phy_capture", "ablation", "capture threshold vs the Fig. 1 dichotomy",
        "modelling ablation — why SIR capture is required to reproduce the paper",
        "With 10 dB capture, 3-hop stays drained while 4-hop's first relay saturates. With "
        "capture disabled the structure degrades and congestion appears in the wrong places.",
        0.1, 1, 0.03, 1, run_ablation_phy_capture});
    registry.add(FigureSpec{
        "ablation_rtscts", "ablation", "is RTS/CTS an alternative to EZ-Flow?",
        "Sec. 5.1 — the paper disables RTS/CTS; EZ-flow attacks the cause instead",
        "Under 550 m carrier sense the handshake only costs airtime. Under 1-hop sensing it "
        "softens hidden-terminal losses but does not drain the relay buffers; EZ-flow does.",
        0.1, 1, 0.02, 1, run_ablation_rtscts});
    registry.add(FigureSpec{
        "ablation_sample_window", "ablation", "CAA decision window sweep",
        "Sec. 3.3 / Alg. 1 — decisions every 50 BOE samples",
        "Tiny windows over-react (more cw churn for no gain); huge windows adapt sluggishly "
        "when the second flow joins. The paper's 50 sits in the flat middle.",
        0.1, 1, 0.015, 1, run_ablation_sample_window});
    registry.add(FigureSpec{
        "ablation_sniff_loss", "ablation", "EZ-Flow under missed sniffs",
        "Sec. 3.2 — robustness to forwarded packets that are not overheard",
        "Stabilization persists across the sweep — the relay buffer stays drained and goodput "
        "flat even when 95% of sniffs are lost; only the convergence time stretches.",
        0.1, 1, 0.02, 1, run_ablation_sniff_loss});
    registry.add(FigureSpec{
        "ablation_thresholds", "ablation", "bmin/bmax sensitivity on the 4-hop chain",
        "Sec. 3.3 — small bmin is essential; bmax trades reactivity for calm",
        "The paper's (0.05, 20) keeps the relay drained at full goodput. Large bmin makes "
        "nodes regain aggressiveness too easily; the bmax choice matters much less.",
        0.1, 1, 0.02, 1, run_ablation_thresholds});
}

}  // namespace ezflow::cli

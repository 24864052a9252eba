#include "analysis/result.h"

#include <stdexcept>

#include "util/stats.h"

namespace ezflow::analysis {

void WindowResult::set(const std::string& name, MetricStat value)
{
    for (auto& [existing, stat] : metrics) {
        if (existing == name) {
            stat = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

const MetricStat* WindowResult::find(const std::string& name) const
{
    for (const auto& [existing, stat] : metrics)
        if (existing == name) return &stat;
    return nullptr;
}

WindowResult& RunResult::add_window(const std::string& window_label)
{
    windows.push_back(WindowResult{window_label, {}});
    return windows.back();
}

const WindowResult* RunResult::find_window(const std::string& window_label) const
{
    for (const WindowResult& window : windows)
        if (window.label == window_label) return &window;
    return nullptr;
}

RunResult& FigureResult::add_cell(const std::string& cell_label)
{
    cells.push_back(RunResult{cell_label, {}});
    return cells.back();
}

const RunResult* FigureResult::find_cell(const std::string& cell_label) const
{
    for (const RunResult& cell : cells)
        if (cell.label == cell_label) return &cell;
    return nullptr;
}

util::Json FigureResult::to_json() const
{
    util::Json root = util::Json::object();
    root.set("schema_version", kSchemaVersion);
    root.set("figure", figure);
    root.set("title", title);
    util::Json options = util::Json::object();
    options.set("scale", scale);
    // As a string: a JSON number is a double, which cannot carry the
    // full 64-bit seed range (and a 2^64 round-trip would be UB).
    options.set("seed", std::to_string(seed));
    options.set("seeds", seeds);
    root.set("options", std::move(options));

    util::Json cells_json = util::Json::array();
    for (const RunResult& cell : cells) {
        util::Json cell_json = util::Json::object();
        cell_json.set("label", cell.label);
        util::Json windows_json = util::Json::array();
        for (const WindowResult& window : cell.windows) {
            util::Json window_json = util::Json::object();
            window_json.set("label", window.label);
            util::Json metrics_json = util::Json::object();
            for (const auto& [name, stat] : window.metrics) {
                util::Json stat_json = util::Json::object();
                stat_json.set("mean", stat.mean);
                stat_json.set("ci95", stat.ci95);
                stat_json.set("n", stat.n);
                metrics_json.set(name, std::move(stat_json));
            }
            window_json.set("metrics", std::move(metrics_json));
            windows_json.push_back(std::move(window_json));
        }
        cell_json.set("windows", std::move(windows_json));
        cells_json.push_back(std::move(cell_json));
    }
    root.set("cells", std::move(cells_json));
    return root;
}

namespace {

const util::Json& require(const util::Json& json, const std::string& key)
{
    const util::Json* value = json.find(key);
    if (value == nullptr)
        throw std::runtime_error("FigureResult: missing field '" + key + "'");
    return *value;
}

}  // namespace

FigureResult FigureResult::from_json(const util::Json& json)
{
    FigureResult result;
    const int version = static_cast<int>(require(json, "schema_version").as_number());
    if (version != kSchemaVersion)
        throw std::runtime_error("FigureResult: unsupported schema_version " +
                                 std::to_string(version));
    result.figure = require(json, "figure").as_string();
    result.title = require(json, "title").as_string();
    const util::Json& options = require(json, "options");
    result.scale = require(options, "scale").as_number();
    result.seed = std::stoull(require(options, "seed").as_string());
    result.seeds = static_cast<int>(require(options, "seeds").as_number());
    for (const util::Json& cell_json : require(json, "cells").elements()) {
        RunResult& cell = result.add_cell(require(cell_json, "label").as_string());
        for (const util::Json& window_json : require(cell_json, "windows").elements()) {
            WindowResult& window = cell.add_window(require(window_json, "label").as_string());
            for (const auto& [name, stat_json] : require(window_json, "metrics").members()) {
                MetricStat stat;
                stat.mean = require(stat_json, "mean").as_number();
                stat.ci95 = require(stat_json, "ci95").as_number();
                stat.n = static_cast<int>(require(stat_json, "n").as_number());
                window.set(name, stat);
            }
        }
    }
    return result;
}

std::string FigureResult::to_csv() const
{
    std::string out = "figure,cell,window,metric,mean,ci95,n\n";
    for (const RunResult& cell : cells) {
        for (const WindowResult& window : cell.windows) {
            for (const auto& [name, stat] : window.metrics) {
                out += figure + ',' + cell.label + ',' + window.label + ',' + name + ',' +
                       util::Json::number_to_string(stat.mean) + ',' +
                       util::Json::number_to_string(stat.ci95) + ',' + std::to_string(stat.n) +
                       '\n';
            }
        }
    }
    return out;
}

RunResult fold_seeds(const std::vector<RunResult>& per_seed)
{
    if (per_seed.empty()) throw std::invalid_argument("fold_seeds: no seeds");
    const RunResult& first = per_seed.front();
    for (const RunResult& seed : per_seed) {
        bool same = seed.label == first.label && seed.windows.size() == first.windows.size();
        for (std::size_t w = 0; same && w < first.windows.size(); ++w) {
            const WindowResult& a = first.windows[w];
            const WindowResult& b = seed.windows[w];
            same = a.label == b.label && a.metrics.size() == b.metrics.size();
            for (std::size_t m = 0; same && m < a.metrics.size(); ++m)
                same = a.metrics[m].first == b.metrics[m].first;
        }
        if (!same)
            throw std::logic_error("fold_seeds: seeds of cell '" + first.label +
                                   "' disagree on window or metric names");
    }

    RunResult folded{first.label, {}};
    for (std::size_t w = 0; w < first.windows.size(); ++w) {
        WindowResult& window = folded.add_window(first.windows[w].label);
        for (std::size_t m = 0; m < first.windows[w].metrics.size(); ++m) {
            util::RunningStats stats;
            for (const RunResult& seed : per_seed) {
                const MetricStat& stat = seed.windows[w].metrics[m].second;
                if (stat.n > 0) stats.add(stat.mean);
            }
            window.metrics.emplace_back(
                first.windows[w].metrics[m].first,
                MetricStat{stats.mean(), util::ci95_halfwidth(stats),
                           static_cast<int>(stats.count())});
        }
    }
    return folded;
}

}  // namespace ezflow::analysis

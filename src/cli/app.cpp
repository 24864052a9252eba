#include "cli/app.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/experiment.h"
#include "analysis/result_diff.h"
#include "cli/registry.h"
#include "util/cli.h"
#include "util/table.h"

namespace ezflow::cli {

namespace {

namespace fs = std::filesystem;

int usage(const char* message = nullptr)
{
    if (message != nullptr) std::fprintf(stderr, "ezflow: %s\n\n", message);
    std::printf(
        "usage: ezflow <command> [args]\n"
        "\n"
        "  list  [--category=figure|table|ablation]\n"
        "        enumerate the registered scenarios/figures\n"
        "  run   <figure...> [--scale=F] [--seed=N] [--seeds=K] [--threads=T]\n"
        "        [--shards=S] [--streaming] [--out=DIR] [--csv=DIR] [--smoke] [--all]\n"
        "        [--json-only] [--quiet]\n"
        "        run figures; with --out, write <out>/<figure>.json (+ .csv)\n"
        "        --smoke uses each figure's canned fast grid (the goldens grid)\n"
        "  diff  <golden> <candidate> [--rel-tol=R] [--abs-tol=A] [--bit-exact]\n"
        "        compare result JSON files (or directories of them); exit 1 on drift\n"
        "  help  show this text\n");
    return message == nullptr ? 0 : 2;
}

/// The flags every run-like command understands; everything else is kept
/// as a figure-specific extra.
struct RunFlags {
    std::optional<double> scale;  ///< unset: use the spec default
    std::uint64_t seed = 7;
    std::optional<int> seeds;  ///< unset: use the spec default
    int threads = 0;
    int shards = 0;  ///< 0: keep each figure's default shard budget
    bool streaming = false;
    std::string out_dir;
    std::string csv_dir;
    bool smoke = false;
    bool all = false;
    bool json_only = false;
    bool quiet = false;
    std::map<std::string, std::string> extra;
};

/// Throws std::invalid_argument / std::out_of_range (caught by run_app and
/// turned into a usage error) on malformed flag values.
RunFlags parse_run_flags(const util::Cli& cli)
{
    RunFlags flags;
    if (cli.has("scale")) flags.scale = cli.get_double("scale", 0.0);
    flags.seed = util::Cli::parse_uint64(cli.get("seed", "7"), "--seed");  // full 64-bit range
    if (cli.has("seeds")) flags.seeds = cli.get_int("seeds", 0);
    flags.threads = cli.get_int("threads", 0);
    flags.shards = cli.get_int("shards", 0);
    flags.streaming = cli.get_bool("streaming", false);
    flags.out_dir = cli.get("out", "");
    flags.csv_dir = cli.get("csv", "");
    flags.smoke = cli.get_bool("smoke", false);
    flags.all = cli.get_bool("all", false);
    flags.json_only = cli.get_bool("json-only", false);
    flags.quiet = cli.get_bool("quiet", false);
    // Anything not claimed above rides along as a figure-specific knob
    // (e.g. grid_maxmin's --hops), exposed via FigureContext::extra.
    static const std::set<std::string> known = {
        "scale", "seed", "seeds", "threads", "shards", "streaming", "out", "csv", "smoke", "all",
        "json-only", "quiet", "rel-tol", "abs-tol", "bit-exact", "category"};
    for (const auto& [name, value] : cli.flags())
        if (known.count(name) == 0) flags.extra[name] = value;
    return flags;
}

/// Every `run` figure passes through here, so this is where out-of-range
/// values are rejected: the throw becomes a usage error (exit 2) in
/// run_app.
FigureContext make_context(const FigureSpec& spec, const RunFlags& flags)
{
    if (flags.scale && !(std::isfinite(*flags.scale) && *flags.scale > 0.0))
        throw std::out_of_range("--scale must be positive and finite");
    if (flags.seeds && *flags.seeds < 1) throw std::out_of_range("--seeds must be at least 1");
    if (flags.threads < 0) throw std::out_of_range("--threads must not be negative");
    if (flags.shards < 0) throw std::out_of_range("--shards must not be negative");
    FigureContext ctx;
    ctx.spec = &spec;
    // An explicit flag always wins; --smoke only replaces the defaults.
    ctx.scale = flags.scale.value_or(flags.smoke ? spec.smoke_scale : spec.default_scale);
    ctx.seed = flags.seed;
    ctx.seeds = flags.seeds.value_or(flags.smoke ? spec.smoke_seeds : spec.default_seeds);
    ctx.threads = flags.threads;
    ctx.shards = flags.shards;
    ctx.streaming = flags.streaming;
    ctx.csv_dir = flags.csv_dir;
    ctx.extra = flags.extra;
    return ctx;
}

/// Format "mean +/-ci" with a precision that adapts to the magnitude.
std::string format_stat(const analysis::MetricStat& stat)
{
    std::ostringstream os;
    os.precision(4);
    os << stat.mean;
    if (stat.n > 1 && stat.ci95 > 0) {
        os << " +/-";
        os.precision(3);
        os << stat.ci95;
    }
    return os.str();
}

/// Generic human-readable report: one table per cell, metrics as rows and
/// windows as columns (the transpose of most of the former printf
/// tables, but uniform across every figure).
void print_report(const FigureSpec& spec, const analysis::FigureResult& result)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", spec.name.c_str(), spec.title.c_str());
    if (!spec.paper_ref.empty()) std::printf("(reproduces %s)\n", spec.paper_ref.c_str());
    std::printf("==============================================================\n");
    for (const analysis::RunResult& cell : result.cells) {
        std::printf("\n%s:\n", cell.label.c_str());
        std::vector<std::string> header = {"metric"};
        for (const analysis::WindowResult& window : cell.windows) header.push_back(window.label);
        util::Table table(header);
        // Metric rows in first-appearance order across windows.
        std::vector<std::string> names;
        for (const analysis::WindowResult& window : cell.windows)
            for (const auto& [name, stat] : window.metrics)
                if (std::find(names.begin(), names.end(), name) == names.end())
                    names.push_back(name);
        for (const std::string& name : names) {
            std::vector<std::string> row = {name};
            for (const analysis::WindowResult& window : cell.windows) {
                const analysis::MetricStat* stat = window.find(name);
                row.push_back(stat != nullptr ? format_stat(*stat) : "-");
            }
            table.add_row(row);
        }
        std::printf("%s", table.to_string().c_str());
    }
    std::printf("[run] scale %g, seed %llu, %d seed(s)\n", result.scale,
                static_cast<unsigned long long>(result.seed), result.seeds);
    if (!spec.expectation.empty()) std::printf("\nExpected shape: %s\n", spec.expectation.c_str());
}

/// "1234567" -> "1.23M"-style compact magnitude for the perf report. The
/// unit thresholds sit at 999.5 so 3-significant-digit rounding can never
/// produce "1e+03k": anything that would round to 1000 uses the next unit.
std::string format_magnitude(double value)
{
    const char* suffix = "";
    if (value >= 999.5e9) {
        value /= 1e12;
        suffix = "T";
    } else if (value >= 999.5e6) {
        value /= 1e9;
        suffix = "G";
    } else if (value >= 999.5e3) {
        value /= 1e6;
        suffix = "M";
    } else if (value >= 999.5) {
        value /= 1e3;
        suffix = "k";
    }
    std::ostringstream os;
    os.precision(3);
    os << value << suffix;
    return os.str();
}

/// This process's peak resident set size in MB, read in-process from
/// VmHWM (a wrapper's ru_maxrss can carry its forking parent's high-water
/// mark across exec); none where /proc/self/status is absent.
std::optional<double> peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return std::nullopt;
}

/// Wall-time/event-rate/peak-memory line for one figure run. Reported to
/// the console only — the result JSON stays byte-deterministic across
/// thread counts and machines.
void print_perf(const FigureSpec& spec, const analysis::PerfTotals& before, double wall)
{
    const analysis::PerfTotals now = analysis::perf_totals();
    const std::uint64_t events = now.events - before.events;
    const std::uint64_t runs = now.runs - before.runs;
    if (runs == 0 || wall <= 0.0) return;
    std::printf("[perf] %s: %.2f s wall, %s events, %s events/s (%llu run%s)", spec.name.c_str(),
                wall, format_magnitude(static_cast<double>(events)).c_str(),
                format_magnitude(static_cast<double>(events) / wall).c_str(),
                static_cast<unsigned long long>(runs), runs == 1 ? "" : "s");
    if (const std::optional<double> rss = peak_rss_mb()) std::printf(", peak RSS %.1f MB", *rss);
    std::printf("\n");
    // This figure's own shard count, not the widest any earlier figure in
    // the process used.
    const int shards = now.shards_since(before);
    if (shards > 1) {
        std::string per_shard;
        for (std::size_t s = 0; s < now.shard_events.size() && static_cast<int>(s) < shards; ++s) {
            if (!per_shard.empty()) per_shard += " ";
            per_shard +=
                format_magnitude(static_cast<double>(now.shard_events[s] - before.shard_events[s]));
        }
        if (shards > static_cast<int>(now.shard_events.size())) per_shard += " ...";
        std::printf("[perf] %s: %d shards, events/shard: %s\n", spec.name.c_str(), shards,
                    per_shard.c_str());
    }
}

bool write_file(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.flush();
    if (!out) {
        std::fprintf(stderr, "ezflow: failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

bool write_outputs(const RunFlags& flags, const analysis::FigureResult& result)
{
    if (flags.out_dir.empty()) return true;
    fs::create_directories(flags.out_dir);
    const std::string base = flags.out_dir + "/" + result.figure;
    if (!write_file(base + ".json", result.to_json().dump() + "\n")) return false;
    if (!flags.json_only && !write_file(base + ".csv", result.to_csv())) return false;
    if (!flags.quiet) std::printf("[out] wrote %s.json%s\n", base.c_str(),
                                  flags.json_only ? "" : " and .csv");
    return true;
}

std::vector<const FigureSpec*> resolve_figures(const std::vector<std::string>& names,
                                               bool all, std::string& error)
{
    FigureRegistry& registry = FigureRegistry::instance();
    if (all) return registry.list();
    std::vector<const FigureSpec*> specs;
    for (const std::string& name : names) {
        const FigureSpec* spec = registry.find(name);
        if (spec == nullptr) {
            error = "unknown figure '" + name + "' (see `ezflow list`)";
            return {};
        }
        specs.push_back(spec);
    }
    return specs;
}

int cmd_list(const util::Cli& cli)
{
    register_builtin_figures();
    const std::string category = cli.get("category", "");
    std::set<std::string> categories;
    for (const FigureSpec* spec : FigureRegistry::instance().list())
        categories.insert(spec->category);
    if (!category.empty() && categories.count(category) == 0) {
        std::string known;
        for (const std::string& name : categories) known += (known.empty() ? "" : ", ") + name;
        return usage(("list: unknown category '" + category + "' (categories: " + known + ")")
                         .c_str());
    }
    util::Table table({"name", "category", "scale", "seeds", "title"});
    for (const FigureSpec* spec : FigureRegistry::instance().list()) {
        if (!category.empty() && spec->category != category) continue;
        table.add_row({spec->name, spec->category, util::Table::num(spec->default_scale, 2),
                       std::to_string(spec->default_seeds), spec->title});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("%zu entries. `ezflow run <name>` runs one; `ezflow help` for flags.\n",
                table.rows());
    return 0;
}

int run_one(const FigureSpec& spec, const RunFlags& flags)
{
    FigureContext ctx = make_context(spec, flags);
    try {
        if (!ctx.csv_dir.empty()) fs::create_directories(ctx.csv_dir);
        const analysis::PerfTotals perf_before = analysis::perf_totals();
        const auto started = std::chrono::steady_clock::now();
        const analysis::FigureResult result = spec.run(ctx);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
        for (const auto& [name, value] : ctx.extra) {
            if (ctx.extra_consumed.count(name) == 0)
                std::fprintf(stderr, "ezflow: warning: --%s is not used by figure '%s'\n",
                             name.c_str(), spec.name.c_str());
        }
        if (!flags.quiet) {
            print_report(spec, result);
            print_perf(spec, perf_before, wall);
        }
        if (!write_outputs(flags, result)) return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ezflow: figure '%s' failed: %s\n", spec.name.c_str(), e.what());
        return 1;
    }
    return 0;
}

int cmd_run(const util::Cli& cli)
{
    register_builtin_figures();
    const RunFlags flags = parse_run_flags(cli);
    std::vector<std::string> names(cli.positional().begin() + 1, cli.positional().end());
    if (names.empty() && !flags.all) return usage("run: no figures given (or use --all)");
    std::string error;
    const auto specs = resolve_figures(names, flags.all, error);
    if (!error.empty()) return usage(error.c_str());
    int rc = 0;
    for (const FigureSpec* spec : specs) rc = std::max(rc, run_one(*spec, flags));
    return rc;
}

analysis::FigureResult load_result(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return analysis::FigureResult::from_json(util::Json::parse(buffer.str()));
}

int diff_files(const std::string& golden_path, const std::string& candidate_path,
               const analysis::DiffOptions& options)
{
    const analysis::FigureResult golden = load_result(golden_path);
    const analysis::FigureResult candidate = load_result(candidate_path);
    const analysis::DiffReport report = analysis::diff_results(golden, candidate, options);
    if (report.passed()) {
        std::printf("PASS %s (%d metrics within %s)\n", golden.figure.c_str(),
                    report.metrics_compared,
                    options.bit_exact
                        ? "bit-exact"
                        : ("rel " + util::Json::number_to_string(options.rel_tol)).c_str());
        return 0;
    }
    std::printf("FAIL %s: %zu finding(s)\n%s", golden.figure.c_str(), report.findings.size(),
                report.to_string().c_str());
    return 1;
}

int cmd_diff(const util::Cli& cli)
{
    if (cli.positional().size() != 3)
        return usage("diff: expected <golden> <candidate> (files or directories)");
    const std::string golden = cli.positional()[1];
    const std::string candidate = cli.positional()[2];
    analysis::DiffOptions options;
    options.rel_tol = cli.get_double("rel-tol", options.rel_tol);
    options.abs_tol = cli.get_double("abs-tol", options.abs_tol);
    options.bit_exact = cli.get_bool("bit-exact", false);

    try {
        if (!fs::is_directory(golden))
            return diff_files(golden, candidate, options);
        // Directory mode: every golden *.json must have a passing partner.
        std::vector<std::string> names;
        for (const auto& entry : fs::directory_iterator(golden))
            if (entry.path().extension() == ".json") names.push_back(entry.path().filename());
        std::sort(names.begin(), names.end());
        if (names.empty()) return usage("diff: no *.json files in golden directory");
        int rc = 0;
        for (const std::string& name : names) {
            const std::string candidate_path = candidate + "/" + name;
            if (!fs::exists(candidate_path)) {
                std::printf("FAIL %s: missing from %s\n", name.c_str(), candidate.c_str());
                rc = 1;
                continue;
            }
            rc = std::max(rc, diff_files(golden + "/" + name, candidate_path, options));
        }
        // Candidate-only results are failures too: a new figure must be
        // pinned by committing its golden, not slip past the gate.
        for (const auto& entry : fs::directory_iterator(candidate)) {
            const std::string name = entry.path().filename();
            if (entry.path().extension() == ".json" &&
                std::find(names.begin(), names.end(), name) == names.end()) {
                std::printf("FAIL %s: no golden for it (regenerate goldens?)\n", name.c_str());
                rc = 1;
            }
        }
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ezflow: diff failed: %s\n", e.what());
        return 2;
    }
}

}  // namespace

int run_app(int argc, char** argv)
{
    const util::Cli cli(argc, argv);
    if (cli.positional().empty()) return usage("missing command");
    const std::string& command = cli.positional().front();
    try {
        if (command == "list") return cmd_list(cli);
        if (command == "run") return cmd_run(cli);
        if (command == "diff") return cmd_diff(cli);
    } catch (const std::invalid_argument& e) {
        return usage(("malformed flag value: " + std::string(e.what())).c_str());
    } catch (const std::out_of_range& e) {
        return usage(("flag value out of range: " + std::string(e.what())).c_str());
    }
    if (command == "help" || command == "--help") return usage();
    return usage(("unknown command '" + command + "'").c_str());
}

}  // namespace ezflow::cli

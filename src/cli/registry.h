#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/result.h"

namespace ezflow::cli {

struct FigureSpec;

/// Everything a registered figure runner needs for one invocation:
/// the resolved knobs (scale/seed/seeds/threads already defaulted from
/// the spec) plus any extra `--name=value` flags the caller passed
/// through (for figure-specific knobs like grid_maxmin's --hops).
struct FigureContext {
    const FigureSpec* spec = nullptr;
    double scale = 1.0;
    std::uint64_t seed = 7;
    int seeds = 1;
    int threads = 0;  ///< 0 = hardware concurrency
    /// Shard budget for generated topologies (0 = the figure's default).
    /// Results are byte-identical across shard counts; only event
    /// partitioning changes.
    int shards = 0;
    /// Streaming recorders: O(nodes + flows) peak memory, whole-run delay
    /// stats instead of windowed ones. For long perf runs only.
    bool streaming = false;
    std::string csv_dir;                       ///< when non-empty, dump first-seed series here
    std::map<std::string, std::string> extra;  ///< unclaimed --key=value flags
    /// Names the runner actually read, so the CLI can warn about flags
    /// (typos, legacy knobs) that silently did nothing.
    mutable std::set<std::string> extra_consumed;

    std::vector<std::uint64_t> seed_grid() const;
    /// Parsed as strictly as the core flags (util::Cli::parse_*): throws
    /// std::invalid_argument on a malformed value; marks `name` consumed
    /// either way.
    int extra_int(const std::string& name, int fallback) const;
    double extra_double(const std::string& name, double fallback) const;
};

/// A registered scenario/figure: the unit `ezflow list | run`
/// operates on. Every former standalone bench main is one of these.
struct FigureSpec {
    std::string name;         ///< canonical short name ("fig06", "table2", ...)
    std::string category;     ///< "figure" | "table" | "ablation"
    std::string title;        ///< one-line description for `ezflow list`
    std::string paper_ref;    ///< which paper artifact it reproduces
    std::string expectation;  ///< the qualitative shape the paper predicts

    double default_scale = 1.0;
    int default_seeds = 1;
    /// The canned fast grid used by `--smoke`, the goldens, and CI.
    double smoke_scale = 0.05;
    int smoke_seeds = 2;

    std::function<analysis::FigureResult(const FigureContext&)> run;
};

/// Process-wide name -> FigureSpec table. Populated by
/// register_builtin_figures(); tests may add their own entries.
class FigureRegistry {
public:
    static FigureRegistry& instance();

    /// Throws std::invalid_argument on a missing name or run, or on a
    /// duplicate name.
    void add(FigureSpec spec);

    /// Lookup by canonical name; nullptr when unknown.
    const FigureSpec* find(const std::string& name) const;

    /// All specs in canonical-name order.
    std::vector<const FigureSpec*> list() const;

    std::size_t size() const { return specs_.size(); }

private:
    std::map<std::string, FigureSpec> specs_;  ///< keyed by canonical name
};

/// Register every figure/table/ablation entry exactly once
/// (idempotent).
void register_builtin_figures();

}  // namespace ezflow::cli

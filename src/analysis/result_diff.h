#pragma once

#include <string>
#include <vector>

#include "analysis/result.h"

namespace ezflow::analysis {

/// Tolerances for comparing a candidate FigureResult against a golden.
struct DiffOptions {
    /// A metric passes when |golden - candidate| <=
    /// abs_tol + rel_tol * max(|golden|, |candidate|).
    double rel_tol = 0.10;
    double abs_tol = 1e-9;
    /// Same-binary/same-seed mode: every metric (mean, ci95, n) must be
    /// exactly equal. Used by the CI determinism gate that compares a
    /// --threads=1 run against a --threads=4 run.
    bool bit_exact = false;
};

/// One discrepancy found by diff_results. `path` locates the value
/// ("cells[scenario1 / EZ-flow].windows[F1 alone].metrics[F1.kbps]").
struct DiffFinding {
    enum class Kind {
        kMissingCell,    ///< golden cell absent from the candidate
        kMissingWindow,  ///< golden window absent from the candidate cell
        kMissingMetric,  ///< golden metric absent from the candidate window
        kExtraCell,      ///< candidate cell the golden does not have
        kExtraWindow,    ///< candidate window the golden does not have
        kExtraMetric,    ///< candidate metric the golden does not have
        kValue,          ///< metric present on both sides but out of tolerance
        kMetadata,       ///< figure name / options mismatch
    };

    Kind kind;
    std::string path;
    double golden = 0.0;
    double candidate = 0.0;
    std::string message;
};

struct DiffReport {
    std::vector<DiffFinding> findings;
    int metrics_compared = 0;

    bool passed() const { return findings.empty(); }
    /// Human-readable one-line-per-finding summary.
    std::string to_string() const;
};

/// Compare `candidate` against `golden` under the given tolerances. The
/// comparison is structural: cells/windows are matched by label, metrics
/// by name; anything present in the golden but absent from the candidate
/// is a failure (and extra candidate metrics are flagged so goldens do
/// not silently drift out of sync with the code).
DiffReport diff_results(const FigureResult& golden, const FigureResult& candidate,
                        const DiffOptions& options);

}  // namespace ezflow::analysis

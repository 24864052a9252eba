#pragma once

// Ladder reports: the metrics one workload invocation measured, their
// text and JSON forms, and the comparison of two sets of reports.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ladder.h"
#include "util/json.h"

namespace ezflow::ladder {

/// An end-to-end metric: one value per timed repetition.
struct EndToEnd {
    std::string name;
    std::string unit;
    std::vector<double> values;
};

/// A per-layer metric of the traced run.
struct LayerMetric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// Everything one workload invocation measured, plus its context.
struct WorkloadReport {
    std::string workload;
    std::string label;
    std::string build_type;
    std::string compile_flags;
    int nproc = 0;
    std::uint64_t seed = 0;
    double sim_scale = 1.0;
    int reps = 0;
    std::string digest;
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    std::vector<EndToEnd> end_to_end;
    std::vector<LayerMetric> per_layer;                       ///< empty without --trace
    std::vector<std::pair<std::string, double>> span_self_s;  ///< by name, largest first
};

double median(std::vector<double> values);

/// The per-layer metrics of a traced repetition. `untraced_wall_s` is the
/// median untraced wall time (for trace.overhead); `twin` is the serial
/// twin of a sharded workload, or null.
std::vector<LayerMetric> per_layer_metrics(const RepResult& traced, const Tracer& tracer,
                                           double untraced_wall_s, const RepResult* twin);

/// Self time summed per span name, largest first, in seconds.
std::vector<std::pair<std::string, double>> self_time_by_name(const Tracer& tracer);

/// `workload metric value unit` lines on stdout (end-to-end values are
/// medians), then the digest and the traced run's top spans.
void print_report(const WorkloadReport& report);

util::Json to_json(const WorkloadReport& report);

/// Compare the reports under two directories (each holding
/// <workload>.json files directly or one level down, pooled per
/// workload) against the bounds in `bench_json`. Prints one verdict per
/// (workload, metric). Returns 1 when any verdict is worse or unresolved
/// or a digest changed, else 0.
int compare_reports(const std::string& base_dir, const std::string& new_dir,
                    const std::string& bench_json);

}  // namespace ezflow::ladder

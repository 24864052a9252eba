#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace ezflow::ladder {

namespace {

double ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double as_double(std::uint64_t count) { return static_cast<double>(count); }

/// The distance between the first and third quartile, as Python's
/// statistics.quantiles(values, n=4) computes them (0 for fewer than two
/// values).
double quartile_spread(std::vector<double> values)
{
    const long n = static_cast<long>(values.size());
    if (n < 2) return 0.0;
    std::sort(values.begin(), values.end());
    const long m = n + 1;
    const auto quartile = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
    };
    return quartile(3) - quartile(1);
}

/// Worsening below these absolute amounts never counts as a regression,
/// whatever the relative bound says: set-up times of a few milliseconds and
/// a process of a few tens of MB jitter by more than a relative bound.
double absolute_floor(const std::string& metric)
{
    if (metric == "setup_s") return 0.01;
    if (metric == "peak_rss_mb") return 2.0;
    return 0.0;
}

std::string read_file(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// `doc[key]`, or an error naming the file when the member is missing.
const util::Json& member(const util::Json& doc, const std::string& key, const std::string& file)
{
    const util::Json* value = doc.find(key);
    if (value == nullptr) throw std::runtime_error(file + ": missing \"" + key + "\"");
    return *value;
}

struct Bound {
    std::string name;
    std::string unit;
    bool lower_is_better = true;
    double bound = 0.0;
};

std::vector<Bound> load_bounds(const std::string& bench_json)
{
    const util::Json doc = util::Json::parse(read_file(bench_json));
    std::vector<Bound> bounds;
    for (const util::Json& metric : member(doc, "end_to_end", bench_json).elements()) {
        Bound bound;
        bound.name = member(metric, "name", bench_json).as_string();
        bound.unit = member(metric, "unit", bench_json).as_string();
        bound.lower_is_better = member(metric, "better", bench_json).as_string() == "lower";
        bound.bound = member(metric, "bound", bench_json).as_number();
        bounds.push_back(bound);
    }
    return bounds;
}

/// Every report of one workload in one set, pooled.
struct Pooled {
    std::map<std::string, std::vector<double>> values;  ///< per end-to-end metric
    int attempted = 0;
    int failed = 0;
    std::set<std::string> digests;
    std::set<std::string> contexts;
};

std::map<std::string, Pooled> load_set(const std::string& dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir)) throw std::runtime_error(dir + " is not a directory");
    std::vector<fs::path> files;
    const auto scan = [&files](const fs::path& where) {
        for (const fs::directory_entry& entry : fs::directory_iterator(where)) {
            const std::string name = entry.path().filename().string();
            const bool trace =
                name.size() > 11 && name.compare(name.size() - 11, 11, ".trace.json") == 0;
            if (entry.is_regular_file() && entry.path().extension() == ".json" && !trace)
                files.push_back(entry.path());
        }
    };
    scan(dir);
    for (const fs::directory_entry& entry : fs::directory_iterator(dir))
        if (entry.is_directory()) scan(entry.path());
    std::sort(files.begin(), files.end());

    std::map<std::string, Pooled> set;
    for (const fs::path& file : files) {
        const std::string name = file.string();
        const util::Json doc = util::Json::parse(read_file(file));
        const util::Json* workload = doc.find("workload");
        if (workload == nullptr) continue;
        Pooled& pooled = set[workload->as_string()];
        for (const auto& [metric, entry] : member(doc, "end_to_end", name).members())
            for (const util::Json& value : member(entry, "values", name).elements())
                pooled.values[metric].push_back(value.as_number());
        pooled.attempted += static_cast<int>(member(doc, "attempted", name).as_number());
        pooled.failed += static_cast<int>(member(doc, "failed", name).as_number());
        pooled.digests.insert(member(doc, "digest", name).as_string());
        const util::Json& context = member(doc, "context", name);
        pooled.contexts.insert(
            member(context, "build_type", name).as_string() + " " +
            member(context, "compile_flags", name).as_string() + " sim_scale=" +
            util::Json::number_to_string(member(context, "sim_scale", name).as_number()));
    }
    if (set.empty()) throw std::runtime_error(dir + " holds no ladder report");
    return set;
}

std::string join(const std::set<std::string>& items)
{
    std::string out;
    for (const std::string& item : items) out += (out.empty() ? "" : ",") + item;
    return out;
}

/// The verdict on one (workload, metric) pair, following the
/// choosing-metrics rules: a spread wider than the bound leaves the pair
/// unresolved unless every new run beats every base run.
const char* verdict(const Bound& bound, const std::vector<double>& base,
                    const std::vector<double>& fresh)
{
    const double base_median = median(base);
    const double allowed = std::max(bound.bound * base_median, absolute_floor(bound.name));
    const double worse_by = bound.lower_is_better ? median(fresh) - base_median
                                                  : base_median - median(fresh);
    const auto [base_min, base_max] = std::minmax_element(base.begin(), base.end());
    const auto [new_min, new_max] = std::minmax_element(fresh.begin(), fresh.end());
    const bool all_better = bound.lower_is_better ? *new_max < *base_min : *new_min > *base_max;
    if (std::max(quartile_spread(base), quartile_spread(fresh)) > allowed)
        return all_better ? "better" : "unresolved";
    if (worse_by > allowed) return "worse";
    if (-worse_by > allowed) return "better";
    return "unchanged";
}

}  // namespace

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<LayerMetric> per_layer_metrics(const RepResult& traced, const Tracer& tracer,
                                           double untraced_wall_s, const RepResult* twin)
{
    std::map<std::string, double> span_s;
    double slices_ns = 0.0;
    std::vector<double> slice_ns_per_event;
    for (const Span& span : tracer.spans()) {
        const double ns = static_cast<double>(span.end_ns - span.start_ns);
        span_s[span.name] += ns * 1e-9;
        if (span.name == "sim.run_slice") {
            slices_ns += ns;
            if (span.deltas.events > 0)
                slice_ns_per_event.push_back(ns / as_double(span.deltas.events));
        }
    }
    const Counters& c = traced.counters;
    const double epochs = as_double(c.epochs);
    const double slice_max =
        slice_ns_per_event.empty()
            ? 0.0
            : *std::max_element(slice_ns_per_event.begin(), slice_ns_per_event.end());
    return {
        {"sim.events", "count", as_double(c.events)},
        {"sim.ns_per_event", "ns", ratio(slices_ns, as_double(c.events))},
        {"sim.events_per_delivered", "events/pkt",
         ratio(as_double(c.events), as_double(c.delivered))},
        {"sim.heap_records", "count", as_double(c.heap_records_peak)},
        {"sim.epochs", "count", epochs},
        {"sim.handoffs", "count", as_double(c.handoffs)},
        {"sim.events_per_epoch", "events/epoch", ratio(as_double(c.events), epochs)},
        // A single-shard workload has no epochs and is its own serial
        // reference: no per-epoch cost, overhead ratio exactly 1.
        {"sim.epoch_overhead_us", "us",
         twin ? ratio((traced.run_s - twin->run_s) * 1e6, epochs) : 0.0},
        {"sim.shard_overhead", "1", twin ? ratio(traced.run_s, twin->run_s) : 1.0},
        {"phy.reach_build_s", "s", span_s["phy.reach_build"]},
        {"phy.fanout_mean", "nodes", ratio(as_double(c.reach_sum), as_double(c.nodes))},
        {"phy.transmissions", "count", as_double(c.transmissions)},
        {"phy.data_tx_share", "1",
         ratio(as_double(c.data_transmissions), as_double(c.transmissions))},
        {"phy.frame_pool_created", "count", as_double(c.frame_pool_created)},
        {"mac.data_attempts", "count", as_double(c.data_attempts)},
        {"mac.retry_ratio", "1", ratio(as_double(c.retransmissions), as_double(c.data_attempts))},
        {"mac.retry_drops", "count", as_double(c.retry_drops)},
        {"mac.mpdus_per_attempt", "1", ratio(as_double(c.successes), as_double(c.data_attempts))},
        {"mac.contention_expiries", "count", as_double(c.contention_expiries)},
        {"mac.slots_batched", "count", as_double(c.slots_batched)},
        {"mac.block_acks_sent", "count", as_double(c.block_acks_sent)},
        {"net.build_s", "s", span_s["net.build_scenario"]},
        {"net.forwarded", "count", as_double(c.forwarded)},
        {"net.forward_queue_drops", "count", as_double(c.forward_queue_drops)},
        {"net.reorder_buffered", "count", as_double(c.reorder_buffered)},
        {"core.boe_samples", "count", as_double(c.boe_samples)},
        {"core.boe_match_ratio", "1",
         ratio(as_double(c.boe_matches), as_double(c.boe_matches + c.boe_misses))},
        {"core.caa_decisions", "count", as_double(c.caa_decisions)},
        {"traffic.generated", "count", as_double(c.generated)},
        {"traffic.source_drop_ratio", "1",
         ratio(as_double(c.dropped_at_source), as_double(c.generated))},
        {"analysis.experiment_setup_s", "s", span_s["analysis.experiment_ctor"]},
        {"analysis.summarize_s", "s", span_s["analysis.summarize"]},
        {"analysis.teardown_s", "s", span_s["analysis.teardown"]},
        {"analysis.stored_samples", "count", as_double(c.stored_samples)},
        {"trace.slice_ns_per_event_p50", "ns", median(slice_ns_per_event)},
        {"trace.slice_ns_per_event_max", "ns", slice_max},
        {"trace.overhead", "1", traced.wall_s / untraced_wall_s - 1.0},
    };
}

std::vector<std::pair<std::string, double>> self_time_by_name(const Tracer& tracer)
{
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i)
        totals[tracer.spans()[i].name] +=
            static_cast<double>(tracer.self_ns(static_cast<int>(i))) * 1e-9;
    std::vector<std::pair<std::string, double>> sorted(totals.begin(), totals.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return sorted;
}

void print_report(const WorkloadReport& report)
{
    const char* name = report.workload.c_str();
    for (const EndToEnd& metric : report.end_to_end)
        std::printf("%s %s %.9g %s\n", name, metric.name.c_str(), median(metric.values),
                    metric.unit.c_str());
    std::printf("%s fail_ratio %.9g 1\n", name,
                ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)));
    for (const LayerMetric& metric : report.per_layer)
        std::printf("%s %s %.9g %s\n", name, metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("%s digest %s hex\n", name, report.digest.c_str());
    if (!report.span_self_s.empty()) {
        double total = 0.0;
        for (const auto& entry : report.span_self_s) total += entry.second;
        std::printf("# %s traced run, top spans by self time:\n", name);
        for (std::size_t i = 0; i < report.span_self_s.size() && i < 5; ++i) {
            const auto& [span, seconds] = report.span_self_s[i];
            std::printf("#   %-28s %9.4f s %5.1f%%\n", span.c_str(), seconds,
                        100.0 * ratio(seconds, total));
        }
    }
    std::fflush(stdout);
}

util::Json to_json(const WorkloadReport& report)
{
    util::Json context = util::Json::object();
    context.set("label", report.label)
        .set("build_type", report.build_type)
        .set("compile_flags", report.compile_flags)
        .set("nproc", report.nproc)
        .set("seed", report.seed)
        .set("sim_scale", report.sim_scale)
        .set("reps", report.reps);

    util::Json end_to_end = util::Json::object();
    for (const EndToEnd& metric : report.end_to_end) {
        util::Json values = util::Json::array();
        for (const double value : metric.values) values.push_back(value);
        util::Json entry = util::Json::object();
        entry.set("unit", metric.unit)
            .set("median", median(metric.values))
            .set("min", *std::min_element(metric.values.begin(), metric.values.end()))
            .set("max", *std::max_element(metric.values.begin(), metric.values.end()))
            .set("values", std::move(values));
        end_to_end.set(metric.name, std::move(entry));
    }
    util::Json per_layer = util::Json::object();
    for (const LayerMetric& metric : report.per_layer) {
        util::Json entry = util::Json::object();
        entry.set("unit", metric.unit).set("value", metric.value);
        per_layer.set(metric.name, std::move(entry));
    }
    util::Json spans = util::Json::object();
    for (const auto& [name, seconds] : report.span_self_s) spans.set(name, seconds);
    util::Json failures = util::Json::array();
    for (const std::string& failure : report.failures) failures.push_back(failure);

    util::Json doc = util::Json::object();
    doc.set("workload", report.workload)
        .set("context", std::move(context))
        .set("digest", report.digest)
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set("failures", std::move(failures))
        .set("end_to_end", std::move(end_to_end))
        .set("per_layer", std::move(per_layer))
        .set("span_self_s", std::move(spans));
    return doc;
}

int compare_reports(const std::string& base_dir, const std::string& new_dir,
                    const std::string& bench_json)
{
    const std::vector<Bound> bounds = load_bounds(bench_json);
    const std::map<std::string, Pooled> base_set = load_set(base_dir);
    const std::map<std::string, Pooled> new_set = load_set(new_dir);
    bool regression = false;

    for (const std::string& workload : workload_names()) {
        const auto base_it = base_set.find(workload);
        const auto new_it = new_set.find(workload);
        const bool in_base = base_it != base_set.end();
        const bool in_new = new_it != new_set.end();
        if (!in_base && !in_new) continue;
        if (!in_base || !in_new) {
            std::printf("%-13s missing from the %s set: unresolved\n", workload.c_str(),
                        in_base ? "new" : "base");
            regression = true;
            continue;
        }
        const Pooled& base = base_it->second;
        const Pooled& fresh = new_it->second;
        if (base.contexts != fresh.contexts)
            std::printf("# %s: build context differs (base %s; new %s)\n", workload.c_str(),
                        join(base.contexts).c_str(), join(fresh.contexts).c_str());

        for (const Bound& bound : bounds) {
            const auto b = base.values.find(bound.name);
            const auto n = fresh.values.find(bound.name);
            if (b == base.values.end() || n == fresh.values.end() || b->second.empty() ||
                n->second.empty()) {
                std::printf("%-13s %-16s not in both sets: unresolved\n", workload.c_str(),
                            bound.name.c_str());
                regression = true;
                continue;
            }
            const std::vector<double>& bv = b->second;
            const std::vector<double>& nv = n->second;
            const auto [base_min, base_max] = std::minmax_element(bv.begin(), bv.end());
            const auto [new_min, new_max] = std::minmax_element(nv.begin(), nv.end());
            const std::string result = verdict(bound, bv, nv);
            if (result == "worse" || result == "unresolved") regression = true;
            std::printf("%-13s %-16s base %11.6g [%.6g, %.6g]  new %11.6g [%.6g, %.6g] %s"
                        "  %+7.2f%%  %s\n",
                        workload.c_str(), bound.name.c_str(), median(bv), *base_min, *base_max,
                        median(nv), *new_min, *new_max, bound.unit.c_str(),
                        100.0 * ratio(median(nv) - median(bv), median(bv)), result.c_str());
        }

        const double base_fail = ratio(base.failed, base.attempted);
        const double new_fail = ratio(fresh.failed, fresh.attempted);
        const char* fail_verdict = new_fail > base_fail   ? "worse"
                                   : new_fail < base_fail ? "better"
                                                          : "unchanged";
        if (new_fail > base_fail) regression = true;
        std::printf("%-13s %-16s base %11.6g (%d/%d)  new %11.6g (%d/%d)  %s\n", workload.c_str(),
                    "fail_ratio", base_fail, base.failed, base.attempted, new_fail, fresh.failed,
                    fresh.attempted, fail_verdict);

        if (base.digests.size() == 1 && base.digests == fresh.digests) {
            std::printf("%-13s %-16s %s unchanged\n", workload.c_str(), "digest",
                        base.digests.begin()->c_str());
        } else {
            std::printf("%-13s %-16s simulated behaviour changed (base %s; new %s)\n",
                        workload.c_str(), "digest", join(base.digests).c_str(),
                        join(fresh.digests).c_str());
            regression = true;
        }
    }
    return regression ? 1 : 0;
}

}  // namespace ezflow::ladder

// ezflow_ladder: run the benchmark ladder, or compare two sets of its
// reports. See README.md for the workloads, metrics and how to read them.
//
//   ezflow_ladder --all [--seed=7] [--reps=3] [--seconds=0] [--out=DIR]
//                 [--trace] [--label=SHA] [--sim-scale=1]
//   ezflow_ladder --workload=NAME [same flags]
//   ezflow_ladder compare BASE_DIR NEW_DIR [--bench-json=PATH]
//
// The load is a closed loop: one experiment at a time. --all runs every
// workload in its own child process (so peak RSS is per workload), one
// after the other. Exit codes: 0 every check passed, 1 a check failed (or
// compare found a regression), 2 usage or runtime error, 3 refused to
// benchmark a non-optimised build.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "ladder.h"
#include "report.h"
#include "util/cli.h"
#include "util/json.h"

extern char** environ;

namespace {

using namespace ezflow;
using namespace ezflow::ladder;
using Clock = std::chrono::steady_clock;

constexpr const char* kBuildType = EZFLOW_LADDER_BUILD_TYPE;
constexpr const char* kCompileFlags = EZFLOW_LADDER_COMPILE_FLAGS;

const std::set<std::string> kRunFlags = {"all",   "workload", "seed", "reps",  "seconds",
                                         "out",   "trace",    "label", "sim-scale"};

/// Whether the compile flags select an optimised, unsanitised build — the
/// only kind whose timings mean anything.
bool optimized_build()
{
    const std::string flags = kCompileFlags;
    if (flags.find("-fsanitize") != std::string::npos) return false;
    for (const char* level : {"-O1", "-O2", "-O3", "-Os", "-Ofast"})
        if (flags.find(level) != std::string::npos) return true;
    return false;
}

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

int nproc() { return static_cast<int>(std::thread::hardware_concurrency()); }

std::uint64_t seed_of(const util::Cli& cli) { return std::stoull(cli.get("seed", "7")); }

void write_text(const std::filesystem::path& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Fold one repetition's outcome into the invocation's tallies. A digest
/// that differs from the first repetition's fails the repetition.
void tally(const char* what, const RepResult& rep, std::uint64_t reference_digest,
           WorkloadReport& report)
{
    report.attempted += rep.attempted;
    int failed = rep.failed;
    for (const std::string& failure : rep.failures)
        report.failures.push_back(what + (": " + failure));
    if (rep.digest != reference_digest) {
        report.failures.push_back(std::string(what) + ": digest " + digest_hex(rep.digest) +
                                  " differs from " + digest_hex(reference_digest));
        failed = std::max(failed, 1);
    }
    report.failed += failed;
}

util::Json trace_json(const WorkloadReport& report, const Tracer& tracer)
{
    util::Json spans = util::Json::array();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const Span& span = tracer.spans()[i];
        util::Json entry = util::Json::object();
        entry.set("name", span.name)
            .set("start_ns", static_cast<std::int64_t>(span.start_ns))
            .set("end_ns", static_cast<std::int64_t>(span.end_ns))
            .set("self_ns", static_cast<std::int64_t>(tracer.self_ns(static_cast<int>(i))))
            .set("parent", span.parent)
            .set("rep", span.rep)
            .set("experiment", span.experiment)
            .set("events", span.deltas.events)
            .set("transmissions", span.deltas.transmissions)
            .set("delivered", span.deltas.delivered)
            .set("epochs", span.deltas.epochs);
        spans.push_back(std::move(entry));
    }
    util::Json doc = util::Json::object();
    doc.set("workload", report.workload).set("seed", report.seed).set("spans", std::move(spans));
    return doc;
}

int run_workload(const util::Cli& cli, const std::string& name)
{
    const double sim_scale = cli.get_double("sim-scale", 1.0);
    const Workload workload = make_workload(name, sim_scale);
    const std::uint64_t seed = seed_of(cli);
    const int min_reps = std::max(1, cli.get_int("reps", 3));
    const double budget_s = cli.get_double("seconds", 0.0);
    const bool trace = cli.get_bool("trace", false);
    const std::filesystem::path out = cli.get("out", "ladder-out");

    WorkloadReport report;
    report.workload = workload.name;
    report.label = cli.get("label", "unlabeled");
    report.build_type = kBuildType;
    report.compile_flags = kCompileFlags;
    report.nproc = nproc();
    report.seed = seed;
    report.sim_scale = sim_scale;

    std::vector<RepResult> reps;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(reps.size()) < min_reps ||
           std::chrono::duration<double>(Clock::now() - start).count() < budget_s)
        reps.push_back(run_rep(workload, seed, static_cast<int>(reps.size()), nullptr));
    const std::uint64_t digest = reps.front().digest;
    for (std::size_t i = 0; i < reps.size(); ++i)
        tally(("rep " + std::to_string(i)).c_str(), reps[i], digest, report);

    std::optional<RepResult> twin;
    if (workload.serial_twin) {
        twin = run_serial_twin(workload, seed);
        tally("serial twin", *twin, digest, report);
    }

    Tracer tracer;
    std::optional<RepResult> traced;
    if (trace) {
        traced = run_rep(workload, seed, static_cast<int>(reps.size()), &tracer);
        tally("traced rep", *traced, digest, report);
    }

    report.digest = digest_hex(digest);
    report.reps = static_cast<int>(reps.size());
    std::vector<double> wall, setup, delivered_per_s;
    for (const RepResult& rep : reps) {
        wall.push_back(rep.wall_s);
        setup.push_back(rep.setup_s);
        delivered_per_s.push_back(static_cast<double>(rep.counters.delivered) / rep.wall_s);
    }
    report.end_to_end = {
        {"wall_s", "s", wall},
        {"setup_s", "s", setup},
        {"peak_rss_mb", "MB", {peak_rss_mb()}},
        {"delivered_per_s", "pkt/s", delivered_per_s},
    };
    if (traced) {
        report.per_layer =
            per_layer_metrics(*traced, tracer, median(wall), twin ? &*twin : nullptr);
        report.span_self_s = self_time_by_name(tracer);
    }

    print_report(report);
    std::filesystem::create_directories(out);
    write_text(out / (name + ".json"), to_json(report).dump() + "\n");
    if (traced) write_text(out / (name + ".trace.json"), trace_json(report, tracer).dump() + "\n");
    for (const std::string& failure : report.failures)
        std::fprintf(stderr, "ezflow_ladder: %s: %s\n", name.c_str(), failure.c_str());
    return report.failed > 0 ? 1 : 0;
}

/// Run every workload in its own child process, one after the other.
int run_all(const util::Cli& cli)
{
    int status_all = 0;
    for (const std::string& name : workload_names()) {
        std::vector<std::string> args = {cli.program(), "--workload=" + name};
        for (const auto& [flag, value] : cli.flags())
            if (flag != "all" && flag != "workload") args.push_back("--" + flag + "=" + value);
        std::vector<char*> argv;
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);

        std::fflush(stdout);
        pid_t child = 0;
        const int spawned = posix_spawn(&child, "/proc/self/exe", nullptr, nullptr, argv.data(),
                                        environ);
        if (spawned != 0)
            throw std::runtime_error("posix_spawn: " + std::string(std::strerror(spawned)));
        int status = 0;
        while (waitpid(child, &status, 0) < 0) {
            if (errno != EINTR)
                throw std::runtime_error("waitpid: " + std::string(std::strerror(errno)));
        }
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
        if (code != 0) {
            std::fprintf(stderr, "ezflow_ladder: workload %s exited with %d\n", name.c_str(), code);
            status_all = std::max(status_all, code);
        }
    }
    return status_all;
}

void usage()
{
    std::fprintf(stderr,
                 "usage: ezflow_ladder --all | --workload=NAME [--seed=7] [--reps=3] "
                 "[--seconds=0] [--out=DIR] [--trace] [--label=SHA] [--sim-scale=1]\n"
                 "       ezflow_ladder compare BASE_DIR NEW_DIR [--bench-json=PATH]\n"
                 "workloads:");
    for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv)
{
    const util::Cli cli(argc, argv);
    try {
        const std::vector<std::string>& positional = cli.positional();
        if (!positional.empty()) {
            if (positional[0] != "compare" || positional.size() != 3) {
                usage();
                return 2;
            }
            const std::string bench_json =
                cli.get("bench-json", std::filesystem::exists("BENCHMARK.json")
                                          ? "BENCHMARK.json"
                                          : EZFLOW_LADDER_SOURCE_DIR "/../../BENCHMARK.json");
            return compare_reports(positional[1], positional[2], bench_json);
        }
        for (const auto& [flag, value] : cli.flags()) {
            if (kRunFlags.count(flag) == 0) {
                std::fprintf(stderr, "ezflow_ladder: unknown flag --%s\n", flag.c_str());
                usage();
                return 2;
            }
        }
        // Scaled-down runs are smoke tests (the ctest selftest runs them
        // under sanitizers); only a full-scale run is a benchmark report.
        if (cli.get_double("sim-scale", 1.0) == 1.0 && !optimized_build()) {
            std::fprintf(stderr,
                         "ezflow_ladder: refusing to benchmark a non-optimised build "
                         "(CMAKE_BUILD_TYPE=%s, flags: %s); configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                         kBuildType, kCompileFlags);
            return 3;
        }
        if (cli.has("all")) return run_all(cli);
        if (cli.has("workload")) return run_workload(cli, cli.get("workload", ""));
        usage();
        return 2;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ezflow_ladder: %s\n", error.what());
        return 2;
    }
}

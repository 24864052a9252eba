// The four ladder workloads and the repetition runner. Each workload does
// most of its work in a few layers and little in the others, so a change
// to one layer shows on the workload that exercises it and reads as
// unchanged on the ones that bypass it (README.md has the full table).

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "ladder.h"
#include "net/topo_gen.h"

namespace ezflow::ladder {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Simulated duration at `sim_scale`, floored so a smoke run still
/// delivers on every flow (the checks require it).
double scaled(double full_s, double sim_scale, double floor_s)
{
    return std::max(full_s * sim_scale, std::min(full_s, floor_s));
}

Workload paper_merge(double sim_scale)
{
    Workload workload{"paper_merge", {}};
    for (const analysis::Mode mode : {analysis::Mode::kBaseline80211, analysis::Mode::kEzFlow}) {
        Workload::Run run;
        run.spec = analysis::ScenarioSpec::scenario1(sim_scale);
        run.options.mode = mode;
        workload.runs.push_back(run);
    }
    return workload;
}

Workload grid10k(double sim_scale)
{
    net::GridSpec grid;
    grid.cols = 100;
    grid.rows = 100;
    grid.cross_flows = 8;
    grid.start_s = 0.0;
    grid.duration_s = scaled(9.0, sim_scale, 4.0);
    Workload::Run run;
    run.spec = analysis::ScenarioSpec::grid_cross(grid);
    run.options.streaming = true;
    return Workload{"grid10k", {run}};
}

Workload gateway_k8(double sim_scale)
{
    net::GridSpec grid;
    grid.cols = 10;
    grid.rows = 10;
    grid.sources = 8;
    grid.duration_s = scaled(1500.0, sim_scale, 20.0);
    Workload::Run run;
    run.spec = analysis::ScenarioSpec::grid_gateway(grid);
    run.spec.ampdu_max_mpdus = 8;
    run.options.mode = analysis::Mode::kEzFlow;
    return Workload{"gateway_k8", {run}};
}

Workload clusters_cut(double sim_scale)
{
    net::ClustersSpec clusters;
    clusters.clusters = 4;
    clusters.cols = 8;
    clusters.rows = 8;
    clusters.sources = 2;
    clusters.start_s = 0.0;
    clusters.duration_s = scaled(14.0, sim_scale, 4.0);
    clusters.max_shards = 4;
    Workload::Run run;
    run.spec = analysis::ScenarioSpec::clusters_spec(clusters);
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    run.shard_threads = std::clamp(cores, 1, 2);
    return Workload{"clusters_cut", {run}, /*serial_twin=*/true};
}

SpanCounts probe(analysis::Experiment* experiment)
{
    SpanCounts now;
    if (experiment == nullptr) return now;
    net::Network& network = experiment->network();
    now.events = network.total_processed();
    now.transmissions = network.total_transmissions();
    for (net::NodeId id = 0; id < network.node_count(); ++id)
        now.delivered += network.node(id).delivered();
    if (const sim::ShardedEngine* engine = network.sharded_engine()) now.epochs = engine->epochs();
    return now;
}

std::uint64_t heap_records(net::Network& network)
{
    std::uint64_t records = 0;
    for (int s = 0; s < network.shard_count(); ++s)
        records += network.shard_scheduler(s).heap_records();
    return records;
}

/// Run end: the latest flow stop plus the drain second Experiment::run
/// uses.
double run_end_s(const analysis::Experiment& experiment)
{
    double stop_s = 0.0;
    for (const net::FlowPlan& plan : experiment.scenario().flows)
        stop_s = std::max(stop_s, plan.stop_s);
    return stop_s + 1.0;
}

void summarize_flows(const analysis::Experiment& experiment, double end_s)
{
    std::vector<int> flow_ids;
    double start_s = end_s;
    for (const net::FlowPlan& plan : experiment.scenario().flows) {
        experiment.summarize(plan.flow_id, plan.start_s, plan.stop_s);
        flow_ids.push_back(plan.flow_id);
        start_s = std::min(start_s, plan.start_s);
    }
    experiment.fairness(flow_ids, start_s, end_s);
}

void collect_counters(analysis::Experiment& experiment, Counters& counters)
{
    net::Network& network = experiment.network();
    counters.events += network.total_processed();
    counters.transmissions += network.total_transmissions();
    counters.data_transmissions += network.total_data_transmissions();
    counters.nodes += static_cast<std::uint64_t>(network.node_count());
    for (int s = 0; s < network.shard_count(); ++s)
        counters.frame_pool_created += network.shard_channel(s).frame_pool().created();
    if (const sim::ShardedEngine* engine = network.sharded_engine()) {
        counters.epochs += engine->epochs();
        counters.handoffs += engine->handoffs();
    }
    counters.contention_expiries += network.contention().expiries();
    counters.slots_batched += network.contention().slots_batched();
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        const net::Node& node = network.node(id);
        const mac::DcfMac& mac = node.mac();
        counters.delivered += node.delivered();
        counters.forwarded += node.forwarded();
        counters.forward_queue_drops += node.forward_queue_drops();
        counters.reorder_buffered += node.reorder_buffered();
        counters.data_attempts += mac.data_attempts();
        counters.retransmissions += mac.retransmissions();
        counters.retry_drops += mac.retry_drops();
        counters.successes += mac.successes();
        counters.block_acks_sent += mac.block_acks_sent();
        if (const core::EzFlowAgent* agent = experiment.agent(id)) {
            counters.boe_samples += agent->samples_delivered();
            for (const auto& [successor, state] : agent->successors()) {
                counters.boe_matches += state->boe.matches();
                counters.boe_misses += state->boe.misses();
                counters.caa_decisions += state->caa->decisions();
            }
        }
    }
    for (const auto& source : experiment.sources()) {
        counters.generated += source->stats().generated;
        counters.dropped_at_source += source->stats().dropped_at_source;
    }
    counters.stored_samples += experiment.sink().stored_samples() +
                               experiment.buffers().stored_samples() +
                               experiment.cw_tracer().stored_samples();
}

}  // namespace

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {"paper_merge", "grid10k", "gateway_k8",
                                                   "clusters_cut"};
    return names;
}

Workload make_workload(const std::string& name, double sim_scale)
{
    if (!(sim_scale > 0.0 && sim_scale <= 1.0))
        throw std::invalid_argument("sim scale must be in (0, 1]");
    if (name == "paper_merge") return paper_merge(sim_scale);
    if (name == "grid10k") return grid10k(sim_scale);
    if (name == "gateway_k8") return gateway_k8(sim_scale);
    if (name == "clusters_cut") return clusters_cut(sim_scale);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Tracer::Tracer() : origin_ns_(0) { origin_ns_ = now_ns(); }

std::int64_t Tracer::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
               .count() -
           origin_ns_;
}

int Tracer::begin(std::string name, int parent, int rep, int experiment, const SpanCounts& now)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.rep = rep;
    span.experiment = experiment;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(now);
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index, const SpanCounts& now)
{
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    const SpanCounts& start = open_[static_cast<std::size_t>(index)];
    span.deltas = {now.events - start.events, now.transmissions - start.transmissions,
                   now.delivered - start.delivered, now.epochs - start.epochs};
}

std::int64_t Tracer::self_ns(int index) const
{
    const Span& span = spans_[static_cast<std::size_t>(index)];
    std::int64_t covered = 0;
    for (const Span& child : spans_)
        if (child.parent == index) covered += child.end_ns - child.start_ns;
    return span.end_ns - span.start_ns - covered;
}

RepResult run_rep(const Workload& workload, std::uint64_t seed, int rep, Tracer* tracer)
{
    RepResult result;
    result.digest = kDigestSeed;
    const Clock::time_point rep_start = Clock::now();
    const int rep_span = tracer != nullptr ? tracer->begin("rep", -1, rep, -1, {}) : -1;

    for (std::size_t e = 0; e < workload.runs.size(); ++e) {
        const Workload::Run& run = workload.runs[e];
        std::unique_ptr<analysis::Experiment> experiment;
        const auto open = [&](const char* name) {
            return tracer != nullptr ? tracer->begin(name, rep_span, rep, static_cast<int>(e),
                                                     probe(experiment.get()))
                                     : -1;
        };
        const auto close = [&](int span) {
            if (tracer != nullptr) tracer->end(span, probe(experiment.get()));
        };

        const Clock::time_point setup_start = Clock::now();
        int span = open("net.build_scenario");
        net::Scenario scenario = analysis::build_scenario(run.spec, seed);
        close(span);
        span = open("analysis.experiment_ctor");
        experiment = std::make_unique<analysis::Experiment>(std::move(scenario), run.options);
        experiment->network().set_shard_threads(run.shard_threads);
        // The routing table compiles lazily at the first lookup; in a
        // threaded sharded run two shard workers race to compile it and
        // the outcome can diverge from the serial twin (README, findings).
        // Compiling it here keeps every workload deterministic.
        experiment->network().routing_table().flow_count();
        close(span);
        result.setup_s += seconds_since(setup_start);

        // Building the reach sets here instead of at the first
        // transmission draws no randomness, so the outcome is unchanged.
        net::Network& network = experiment->network();
        span = open("phy.reach_build");
        for (net::NodeId id = 0; id < network.node_count(); ++id)
            result.counters.reach_sum +=
                network.shard_channel(network.shard_of(id)).reachable_count(id);
        close(span);

        const double end_s = run_end_s(*experiment);
        const Clock::time_point run_start = Clock::now();
        if (tracer != nullptr) {
            for (int slice = 1; slice <= kTraceSlices; ++slice) {
                span = open("sim.run_slice");
                experiment->run_until_s(slice == kTraceSlices ? end_s
                                                              : end_s * slice / kTraceSlices);
                close(span);
                result.counters.heap_records_peak =
                    std::max(result.counters.heap_records_peak, heap_records(network));
            }
        } else {
            experiment->run_until_s(end_s);
            result.counters.heap_records_peak =
                std::max(result.counters.heap_records_peak, heap_records(network));
        }
        result.run_s += seconds_since(run_start);

        span = open("analysis.summarize");
        summarize_flows(*experiment, end_s);
        close(span);

        span = open("check.audit");
        const std::size_t failures_before = result.failures.size();
        result.digest = fold_digest(result.digest, check_experiment(*experiment, result.failures));
        collect_counters(*experiment, result.counters);
        ++result.attempted;
        if (result.failures.size() > failures_before) ++result.failed;
        close(span);

        span = open("analysis.teardown");
        const SpanCounts last = probe(experiment.get());
        experiment.reset();
        if (tracer != nullptr) tracer->end(span, last);
    }

    result.wall_s = seconds_since(rep_start);
    if (tracer != nullptr) {
        const Counters& c = result.counters;
        tracer->end(rep_span, SpanCounts{c.events, c.transmissions, c.delivered, c.epochs});
    }
    return result;
}

RepResult run_serial_twin(const Workload& workload, std::uint64_t seed)
{
    Workload twin = workload;
    twin.runs.resize(1);
    twin.runs[0].spec.shards = 1;
    twin.runs[0].shard_threads = 1;
    twin.serial_twin = false;
    return run_rep(twin, seed, 0, nullptr);
}

}  // namespace ezflow::ladder

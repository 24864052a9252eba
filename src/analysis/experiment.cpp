#include "analysis/experiment.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>

#include "analysis/drop_audit.h"

namespace ezflow::analysis {

namespace {

// Traffic, EZ-Flow and recorder settings fixed for every run (the paper's values).
constexpr int kPayloadBytes = 1000;
constexpr std::size_t kBoeHistory = 1000;  ///< BOE sent-list length
constexpr util::SimTime kBufferSamplePeriod = 100 * util::kMillisecond;
constexpr util::SimTime kCwSamplePeriod = util::kSecond;

// Effort accumulators behind perf_totals().
std::atomic<std::uint64_t> g_events{0};
std::atomic<std::uint64_t> g_runs{0};
std::mutex g_shard_mutex;
std::map<int, std::uint64_t> g_runs_by_shards;  ///< guarded by g_shard_mutex
std::atomic<std::uint64_t> g_shard_events[PerfTotals::kShardSlots]{};
std::atomic<std::uint64_t> g_epochs{0};
std::atomic<std::uint64_t> g_sharded_events{0};

}  // namespace

std::string mode_name(Mode mode)
{
    switch (mode) {
        case Mode::kBaseline80211: return "802.11";
        case Mode::kEzFlow: return "EZ-flow";
        case Mode::kPenalty: return "penalty-q";
        case Mode::kPaced: return "EZ-flow (paced)";
    }
    throw std::logic_error("mode_name: unknown mode");
}

PerfTotals perf_totals()
{
    PerfTotals totals;
    totals.events = g_events.load(std::memory_order_relaxed);
    totals.runs = g_runs.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(g_shard_mutex);
        totals.runs_by_shards = g_runs_by_shards;
    }
    for (const std::atomic<std::uint64_t>& events : g_shard_events)
        totals.shard_events.push_back(events.load(std::memory_order_relaxed));
    totals.epochs = g_epochs.load(std::memory_order_relaxed);
    totals.sharded_events = g_sharded_events.load(std::memory_order_relaxed);
    return totals;
}

int PerfTotals::shards_since(const PerfTotals& before) const
{
    int widest = 1;
    for (const auto& [shards, runs] : runs_by_shards) {
        const auto it = before.runs_by_shards.find(shards);
        if (runs > (it == before.runs_by_shards.end() ? 0 : it->second) && shards > widest)
            widest = shards;
    }
    return widest;
}

Experiment::Experiment(net::Scenario scenario, ExperimentOptions options)
    : scenario_(std::move(scenario)), options_(options)
{
    net::Network& net = *scenario_.network;

    // Collect transmitting nodes (sources + relays) and cw-trace targets.
    std::set<net::NodeId> transmitters;
    std::vector<CwTracer::Target> cw_targets;
    for (const net::FlowPlan& plan : scenario_.flows) {
        for (std::size_t i = 0; i + 1 < plan.path.size(); ++i) {
            if (transmitters.insert(plan.path[i]).second)
                cw_targets.push_back(CwTracer::Target{plan.path[i], plan.path[i + 1]});
        }
    }
    transmitters_.assign(transmitters.begin(), transmitters.end());

    // Policy under test.
    switch (options_.mode) {
        case Mode::kBaseline80211:
            break;
        case Mode::kEzFlow:
            agents_ = core::install_ezflow(net, options_.caa, kBoeHistory,
                                           options_.boe_sniff_loss);
            break;
        case Mode::kPenalty:
            core::apply_penalty_policy(net, options_.penalty);
            break;
        case Mode::kPaced: {
            core::PacedEzFlowAgent::Options paced;
            paced.caa = options_.caa;
            paced_agents_ = core::install_paced_ezflow(net, paced);
            break;
        }
    }

    // Traffic and measurement plumbing.
    sink_ = std::make_unique<traffic::Sink>(net);
    sink_->set_streaming(options_.streaming);
    for (const net::FlowPlan& plan : scenario_.flows) {
        sink_->attach_flow(plan.flow_id);
        throughput_[plan.flow_id] =
            std::make_unique<ThroughputMeter>(net, plan.flow_id, options_.throughput_window);
        throughput_[plan.flow_id]->start();
        auto source = std::make_unique<traffic::CbrSource>(net, plan.flow_id, kPayloadBytes,
                                                           options_.cbr_rate_bps);
        source->activate(util::from_seconds(plan.start_s), util::from_seconds(plan.stop_s));
        sources_.push_back(std::move(source));
    }
    buffer_tracer_ = std::make_unique<BufferTracer>(net, transmitters_, kBufferSamplePeriod,
                                                    options_.streaming);
    buffer_tracer_->start();
    cw_tracer_ = std::make_unique<CwTracer>(net, cw_targets, kCwSamplePeriod,
                                            options_.streaming);
    cw_tracer_->start();

    if (!scenario_.faults.empty()) {
        fault_injector_ = std::make_unique<sim::FaultInjector>(net, scenario_.faults);
        fault_injector_->arm();
    }
}

void Experiment::run()
{
    double stop_s = 0.0;
    for (const net::FlowPlan& plan : scenario_.flows) stop_s = std::max(stop_s, plan.stop_s);
    run_until_s(stop_s + 1.0);
}

void Experiment::run_until_s(double t_s)
{
    scenario_.network->run_until(util::from_seconds(t_s));
    count_effort();
    // Every run balances its packet ledger: the losses must partition
    // into the named drop buckets (throws on a leak or a double-count, so
    // the goldens cannot absorb an accounting bug).
    audit_drop_accounting(*this);
}

void Experiment::count_effort()
{
    // The network's counters are cumulative; add only what this call
    // ran, so a run stopped in several slices counts its events once.
    net::Network& network = *scenario_.network;
    const std::uint64_t events = network.total_processed();
    const int shards = network.shard_count();
    g_events.fetch_add(events - counted_.events, std::memory_order_relaxed);
    if (!counted_.run) {
        counted_.run = true;
        g_runs.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(g_shard_mutex);
        ++g_runs_by_shards[shards];
    }
    if (shards > 1) {
        for (int s = 0; s < shards && s < PerfTotals::kShardSlots; ++s) {
            const std::uint64_t shard_events = network.shard_processed(s);
            std::uint64_t& counted = counted_.shard_events[static_cast<std::size_t>(s)];
            g_shard_events[s].fetch_add(shard_events - counted, std::memory_order_relaxed);
            counted = shard_events;
        }
        const std::uint64_t epochs = network.sharded_engine()->epochs();
        g_epochs.fetch_add(epochs - counted_.epochs, std::memory_order_relaxed);
        g_sharded_events.fetch_add(events - counted_.events, std::memory_order_relaxed);
        counted_.epochs = epochs;
    }
    counted_.events = events;
}

const core::PacedEzFlowAgent* Experiment::paced_agent(net::NodeId node) const
{
    const auto it = paced_agents_.find(node);
    return it == paced_agents_.end() ? nullptr : it->second.get();
}

ThroughputMeter& Experiment::throughput(int flow_id)
{
    const auto it = throughput_.find(flow_id);
    if (it == throughput_.end()) throw std::invalid_argument("Experiment::throughput: unknown flow");
    return *it->second;
}

const core::EzFlowAgent* Experiment::agent(net::NodeId node) const
{
    const auto it = agents_.find(node);
    return it == agents_.end() ? nullptr : it->second.get();
}

Experiment::FlowSummary Experiment::summarize(int flow_id, double from_s, double to_s) const
{
    const auto it = throughput_.find(flow_id);
    if (it == throughput_.end()) throw std::invalid_argument("Experiment::summarize: unknown flow");
    const util::SimTime from = util::from_seconds(from_s);
    const util::SimTime to = util::from_seconds(to_s);
    FlowSummary summary;
    summary.mean_kbps = it->second->mean_kbps(from, to);
    summary.stddev_kbps = it->second->stddev_kbps(from, to);
    summary.throughput_samples = it->second->samples(from, to);
    if (options_.streaming) {
        // No delay series in streaming mode; report the whole-run stats.
        const util::RunningStats& delays = sink_->flow(flow_id).delay_us;
        summary.delay_samples = delays.count();
        if (delays.count() > 0) {
            summary.mean_delay_s = delays.mean() / static_cast<double>(util::kSecond);
            summary.max_delay_s = delays.max() / static_cast<double>(util::kSecond);
        }
        return summary;
    }
    const util::TimeSeries& delays = sink_->flow(flow_id).delay_series;
    summary.delay_samples = delays.count_between(from, to);
    summary.mean_delay_s = delays.mean_between(from, to) / static_cast<double>(util::kSecond);
    summary.max_delay_s = delays.max_between(from, to) / static_cast<double>(util::kSecond);
    return summary;
}

double Experiment::fairness(const std::vector<int>& flow_ids, double from_s, double to_s) const
{
    std::vector<double> rates;
    rates.reserve(flow_ids.size());
    for (int id : flow_ids) {
        const auto it = throughput_.find(id);
        if (it == throughput_.end()) throw std::invalid_argument("Experiment::fairness: unknown flow");
        rates.push_back(
            it->second->mean_kbps(util::from_seconds(from_s), util::from_seconds(to_s)));
    }
    return jain_index(rates);
}

}  // namespace ezflow::analysis

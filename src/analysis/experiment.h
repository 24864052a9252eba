#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/recorder.h"
#include "core/agent.h"
#include "core/pacer.h"
#include "core/penalty.h"
#include "net/topologies.h"
#include "sim/fault_injector.h"
#include "traffic/sink.h"
#include "traffic/source.h"

namespace ezflow::analysis {

/// Channel-access policy under test.
enum class Mode {
    kBaseline80211,  ///< plain IEEE 802.11 DCF (the paper's baseline)
    kEzFlow,         ///< EZ-Flow agents at every transmitting node
    kPenalty,        ///< the static penalty-q policy of [9] (ablation)
    kPaced,          ///< rate-pacing EZ-Flow (core/pacer.h, the paper's conclusion)
};

std::string mode_name(Mode mode);

struct ExperimentOptions {
    Mode mode = Mode::kBaseline80211;
    core::CaaConfig caa{};             ///< EZ-Flow parameters (modes kEzFlow, kPaced)
    core::PenaltyConfig penalty{};     ///< penalty parameters (mode kPenalty)
    double cbr_rate_bps = 2e6;         ///< saturating CBR, as in the paper
    util::SimTime throughput_window = 10 * util::kSecond;
    double boe_sniff_loss = 0.0;       ///< ablation: fraction of sniffs missed (kEzFlow)
    /// Streaming measurement: the sink and the buffer and CW tracers
    /// keep whole-run summaries (RunningStats) instead of per-event
    /// series, so peak memory is O(nodes + flows) regardless of run
    /// length (EZ-Flow agents keep no series in either mode). summarize()
    /// then reports whole-run delay stats instead of windowed ones; series
    /// accessors (delay_series, tracer trace(), goodput_kbps) are
    /// unavailable. For long perf runs (islands / 10k grids), not for
    /// figure generation.
    bool streaming = false;
};

/// Process-wide tally of simulation effort over every Experiment:
/// scheduler events processed and runs, per shard count. The CLI reports
/// events/second from snapshots of this — the numbers never enter any
/// result JSON, so byte-determinism of results across thread counts is
/// untouched.
struct PerfTotals {
    /// Display slots for per-shard event totals (the CLI marks runs that
    /// had more shards).
    static constexpr int kShardSlots = 8;

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    /// Runs per shard count (key 1 = the serial engine).
    std::map<int, std::uint64_t> runs_by_shards;
    /// Events processed per shard id, summed across multi-shard runs.
    std::vector<std::uint64_t> shard_events;
    /// Epoch barriers crossed by multi-shard runs, and the events those
    /// runs processed (their ratio is the mean events per epoch).
    std::uint64_t epochs = 0;
    std::uint64_t sharded_events = 0;

    /// Widest shard count among the runs counted since `before` (1 when
    /// none was sharded).
    int shards_since(const PerfTotals& before) const;
};

/// Snapshot of the accumulated totals (monotonic; diff two snapshots to
/// measure one command).
PerfTotals perf_totals();

/// Owns a scenario plus everything needed to run and measure it:
/// CBR sources per flow plan, a sink at each destination, buffer and cw
/// tracers on every transmitting node, and a throughput meter per flow.
/// It is the one run path: every run settles its drop audit and is
/// counted in perf_totals().
class Experiment {
public:
    Experiment(net::Scenario scenario, ExperimentOptions options);
    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    /// Run until the latest flow stop time plus a small drain margin.
    void run();
    /// Run until `t_s` seconds of simulated time, add the effort to
    /// perf_totals() and settle the drop audit (audit_drop_accounting
    /// throws std::logic_error on a leak or a double-count).
    void run_until_s(double t_s);

    net::Network& network() { return *scenario_.network; }
    const net::Scenario& scenario() const { return scenario_; }
    traffic::Sink& sink() { return *sink_; }
    BufferTracer& buffers() { return *buffer_tracer_; }
    CwTracer& cw_tracer() { return *cw_tracer_; }
    ThroughputMeter& throughput(int flow_id);
    const core::EzFlowAgent* agent(net::NodeId node) const;
    /// The paced agent at `node` (mode kPaced), or null.
    const core::PacedEzFlowAgent* paced_agent(net::NodeId node) const;

    /// Mean/stddev goodput (kb/s) and mean delay (s) over [from_s, to_s).
    /// The sample counts distinguish a measured zero from an unmeasured
    /// window (throughput windows / deliveries inside the interval): the
    /// value fields are 0.0 either way, and aggregation must not treat a
    /// window that was never measured as a genuine zero.
    struct FlowSummary {
        double mean_kbps = 0.0;
        double stddev_kbps = 0.0;
        double mean_delay_s = 0.0;
        double max_delay_s = 0.0;
        std::int64_t throughput_samples = 0;
        std::int64_t delay_samples = 0;
    };
    FlowSummary summarize(int flow_id, double from_s, double to_s) const;

    /// Jain's index over the given flows' goodput in [from_s, to_s).
    double fairness(const std::vector<int>& flow_ids, double from_s, double to_s) const;

    /// Nodes that transmit data (sources + relays), in id order.
    const std::vector<net::NodeId>& transmitting_nodes() const { return transmitters_; }

    /// The flows' traffic sources, in scenario flow-plan order (stats()
    /// settles closed-form accounting, hence non-const).
    const std::vector<std::unique_ptr<traffic::Source>>& sources() { return sources_; }

    /// The armed fault injector, or null when the scenario carries no
    /// fault plan.
    const sim::FaultInjector* fault_injector() const { return fault_injector_.get(); }

private:
    /// Add what the network ran since the last call to perf_totals(); the
    /// run itself counts once.
    void count_effort();

    net::Scenario scenario_;
    ExperimentOptions options_;
    std::unique_ptr<traffic::Sink> sink_;
    std::vector<std::unique_ptr<traffic::Source>> sources_;
    std::map<int, std::unique_ptr<ThroughputMeter>> throughput_;
    std::unique_ptr<BufferTracer> buffer_tracer_;
    std::unique_ptr<CwTracer> cw_tracer_;
    std::map<net::NodeId, std::unique_ptr<core::EzFlowAgent>> agents_;
    std::map<net::NodeId, std::unique_ptr<core::PacedEzFlowAgent>> paced_agents_;
    std::vector<net::NodeId> transmitters_;
    std::unique_ptr<sim::FaultInjector> fault_injector_;
    struct Counted {
        bool run = false;
        std::uint64_t events = 0;
        std::uint64_t epochs = 0;
        std::array<std::uint64_t, PerfTotals::kShardSlots> shard_events{};
    } counted_;
};

}  // namespace ezflow::analysis

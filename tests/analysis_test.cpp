#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "analysis/drop_audit.h"
#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/metrics.h"
#include "analysis/recorder.h"
#include "analysis/result.h"
#include "analysis/sweep.h"
#include "core/pacer.h"
#include "net/topo_gen.h"
#include "net/topologies.h"
#include "traffic/source.h"
#include "util/stats.h"

namespace ezflow::analysis {
namespace {

using util::kSecond;

// --------------------------------------------------------------- metrics

TEST(Jain, PerfectFairnessIsOne)
{
    EXPECT_DOUBLE_EQ(jain_index({100.0, 100.0, 100.0}), 1.0);
}

TEST(Jain, TotalStarvationIsOneOverN)
{
    EXPECT_DOUBLE_EQ(jain_index({100.0, 0.0}), 0.5);
    EXPECT_DOUBLE_EQ(jain_index({100.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Jain, PaperTable2Value)
{
    // Table 2: F1 = 7, F2 = 143 kb/s -> FI = 0.55.
    EXPECT_NEAR(jain_index({7.0, 143.0}), 0.55, 0.005);
}

TEST(Jain, PaperTable3Value)
{
    // Table 3, 802.11 with three flows: 129.9, 31.0, 27.3 -> FI = 0.64.
    EXPECT_NEAR(jain_index({129.9, 31.0, 27.3}), 0.64, 0.005);
}

TEST(Jain, AllZeroIsFair)
{
    EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(Jain, RejectsBadInput)
{
    EXPECT_THROW(jain_index({}), std::invalid_argument);
    EXPECT_THROW(jain_index({-1.0, 5.0}), std::invalid_argument);
}

// -------------------------------------------------------------- recorders

using Quantity = QueueTracer::Quantity;

TEST(QueueTracer, SamplesBacklogPeriodically)
{
    net::Scenario s = net::make_line(2, 100, 3);
    QueueTracer tracer(*s.network, Quantity::kBacklog, {{1, 2}}, kSecond);
    tracer.start();
    s.network->run_until(10 * kSecond + 1);
    EXPECT_EQ(tracer.trace(1).size(), 10u);
    EXPECT_THROW(tracer.trace(0), std::invalid_argument);
    EXPECT_THROW(tracer.start(), std::logic_error);
}

TEST(ThroughputMeter, MeasuresWindowedGoodput)
{
    net::Scenario s = net::make_line(1, 100, 3);
    ThroughputMeter meter(*s.network, 0, kSecond);
    meter.start();
    traffic::CbrSource source(*s.network, 0, 1000, 80'000.0);
    source.activate(0, 20 * kSecond);
    s.network->run_until(21 * kSecond);
    EXPECT_NEAR(meter.mean_kbps(2 * kSecond, 20 * kSecond), 80.0, 6.0);
}

TEST(TimeSeries, CountBetweenTellsNoDataFromMeasuredZero)
{
    // The window helpers return 0.0 for an empty window — only the count
    // distinguishes "no data" from a genuine measured zero.
    util::TimeSeries series;
    EXPECT_EQ(series.count_between(0, 100), 0);
    series.add(10, 0.0);
    series.add(20, 5.0);
    series.add(30, 0.0);
    EXPECT_EQ(series.count_between(0, 100), 3);
    EXPECT_EQ(series.count_between(10, 30), 2);  // half-open [from, to)
    EXPECT_EQ(series.count_between(30, 30), 0);
    EXPECT_EQ(series.count_between(40, 100), 0);
    EXPECT_DOUBLE_EQ(series.mean_between(40, 100), 0.0);  // the ambiguous zero
}

TEST(ThroughputMeter, ExposesWindowSampleCounts)
{
    net::Scenario s = net::make_line(1, 100, 3);
    ThroughputMeter meter(*s.network, 0, kSecond);
    meter.start();
    traffic::CbrSource source(*s.network, 0, 1000, 80'000.0);
    source.activate(0, 5 * kSecond);
    s.network->run_until(6 * kSecond);
    EXPECT_GT(meter.samples(0, 6 * kSecond), 0);
    // Beyond the run there are no windows at all: the mean reports 0.0
    // but the sample count exposes it as fabricated.
    EXPECT_EQ(meter.samples(50 * kSecond, 60 * kSecond), 0);
    EXPECT_DOUBLE_EQ(meter.mean_kbps(50 * kSecond, 60 * kSecond), 0.0);
}

TEST(QueueTracer, TracksQueueCwMin)
{
    net::Scenario s = net::make_line(2, 100, 3);
    QueueTracer tracer(*s.network, Quantity::kCwMin, {{0, 1}}, kSecond);
    tracer.start();
    traffic::CbrSource source(*s.network, 0, 1000, 50'000.0);
    source.activate(0, 10 * kSecond);
    s.network->node(0).mac().set_queue_cw_min(mac::QueueKey{1, true}, 1 << 8);
    s.network->run_until(10 * kSecond + 1);
    ASSERT_FALSE(tracer.trace(0).empty());
    EXPECT_DOUBLE_EQ(tracer.trace(0).values().back(), 256.0);
}

/// Reference sampler: one periodic event chain per target, each reading
/// the target's quantity (the node's MAC backlog, or its queue's CWmin
/// once the queue exists) into its own TimeSeries. Started right after
/// an Experiment's tracers on the same period, its events fire next to
/// the tracer's at every instant, so both see the same values.
class ReferenceSampler {
public:
    ReferenceSampler(net::Network& network, Quantity quantity,
                     const std::vector<QueueTracer::Target>& targets, util::SimTime period)
        : network_(network), quantity_(quantity), period_(period)
    {
        for (const QueueTracer::Target& t : targets) {
            series_[t.node];
            network_.scheduler_for(t.node).schedule_in(period_, [this, t] { sample(t); });
        }
    }

    const util::TimeSeries& trace(net::NodeId node) const { return series_.at(node); }

private:
    void sample(QueueTracer::Target t)
    {
        sim::Scheduler& scheduler = network_.scheduler_for(t.node);
        const mac::MacQueueSet& queues = network_.node(t.node).mac().queues();
        if (quantity_ == Quantity::kBacklog) {
            series_.at(t.node).add(scheduler.now(), static_cast<double>(queues.total_packets()));
        } else {
            const mac::MacQueue* q = queues.find(mac::QueueKey{t.successor, false});
            if (q == nullptr) q = queues.find(mac::QueueKey{t.successor, true});
            if (q != nullptr)
                series_.at(t.node).add(scheduler.now(), static_cast<double>(q->cw_min()));
        }
        scheduler.schedule_in(period_, [this, t] { sample(t); });
    }

    net::Network& network_;
    Quantity quantity_;
    util::SimTime period_;
    std::map<net::NodeId, util::TimeSeries> series_;
};

TEST(QueueTracer, TimeAxisStartedOffThePeriodGridMatchesReferenceSampler)
{
    // A sweep stores no time per instant: instant k is its first sample's
    // instant plus k periods. Started at 1.234567 s, no instant falls on a
    // multiple of the period, so an axis anchored anywhere else misplaces
    // every sample.
    net::Scenario s = net::make_line(4, 40, 3);
    traffic::CbrSource source(*s.network, 0, 1000, 2e6);
    source.activate(0, 20 * kSecond);
    const util::SimTime start = 1'234'567;
    const util::SimTime period = 100 * util::kMillisecond;
    const util::SimTime end = 20 * kSecond;
    s.network->run_until(start);
    const std::vector<QueueTracer::Target> targets = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
    QueueTracer tracer(*s.network, Quantity::kBacklog, targets, period);
    tracer.start();
    const ReferenceSampler reference(*s.network, Quantity::kBacklog, targets, period);
    s.network->run_until(end);

    std::size_t samples = 0;
    bool varied = false;
    for (const QueueTracer::Target& t : targets) {
        const util::TimeSeries& want = reference.trace(t.node);
        ASSERT_GT(want.size(), 100u) << "node " << t.node;
        samples += want.size();
        varied = varied || std::any_of(want.values().begin(), want.values().end(),
                                       [&](double v) { return v != want.values().front(); });
        EXPECT_EQ(want.times().front(), start + period);
        const util::TimeSeries got = tracer.trace(t.node);
        EXPECT_EQ(got.times(), want.times()) << "node " << t.node;
        EXPECT_EQ(got.values(), want.values()) << "node " << t.node;
        const std::vector<util::SimTime>& at = want.times();
        const std::vector<std::pair<util::SimTime, util::SimTime>> windows = {
            {0, end + 1},                        // the whole run
            {0, at.front()},                     // ends on the first instant
            {period, 2 * period},                // on the period grid, before the first instant
            {at[3], at[40]},                     // on instants: from in, to out
            {at[3] + 1, at[40] - 1},             // between instants
            {at[3] - 1, at[40] + 1},             // just outside instants
            {10 * period, 60 * period},          // on the period grid, between instants
            {at.back(), at.back() + 1},          // the last instant alone
            {end + kSecond, end + 2 * kSecond},  // after the run
        };
        for (const auto& [from, to] : windows)
            EXPECT_EQ(tracer.mean(t.node, from, to), want.mean_between(from, to))
                << "node " << t.node << " window [" << from << ", " << to << ")";
    }
    EXPECT_TRUE(varied);
    EXPECT_EQ(tracer.stored_samples(), samples);
}

/// Experiment's trace targets: each transmitting node toward its
/// successor on the first flow that crosses it.
std::vector<QueueTracer::Target> experiment_targets(const net::Scenario& scenario)
{
    std::vector<QueueTracer::Target> targets;
    for (const net::FlowPlan& plan : scenario.flows)
        for (std::size_t i = 0; i + 1 < plan.path.size(); ++i)
            if (std::none_of(targets.begin(), targets.end(), [&](const QueueTracer::Target& t) {
                    return t.node == plan.path[i];
                }))
                targets.push_back(QueueTracer::Target{plan.path[i], plan.path[i + 1]});
    return targets;
}

net::Scenario two_islands()
{
    net::IslandsSpec islands;
    islands.islands = 2;
    islands.cols = 3;
    islands.rows = 2;
    islands.sources = 2;
    islands.start_s = 1.0;
    islands.duration_s = 30.0;
    islands.max_shards = 2;
    net::Scenario scenario = net::make_islands(islands, /*seed=*/5);
    EXPECT_EQ(scenario.network->shard_count(), 2);
    return scenario;
}

/// Both of an Experiment's tracers held against the reference sampler:
/// the backlog tracer (Fig. 1 / Fig. 4, 100 ms, 802.11) and the CW tracer
/// (Fig. 8 / Fig. 11, 1 s, EZ-Flow so the windows move).
class QueueTracerColumns : public testing::TestWithParam<Quantity> {
protected:
    bool backlog() const { return GetParam() == Quantity::kBacklog; }
    util::SimTime period() const { return backlog() ? 100 * util::kMillisecond : kSecond; }

    /// Run `scenario` for `seconds` with the tracer (streaming or not)
    /// and the reference side by side; every query must match bit for
    /// bit. Returns the earliest first-sample time of any target and the
    /// latest, so callers can check where columns start.
    std::pair<util::SimTime, util::SimTime> expect_matches_reference(net::Scenario scenario,
                                                                     double seconds,
                                                                     bool streaming) const
    {
        ExperimentOptions options;
        options.mode = backlog() ? Mode::kBaseline80211 : Mode::kEzFlow;
        options.streaming = streaming;
        Experiment exp(std::move(scenario), options);
        const std::vector<QueueTracer::Target> targets = experiment_targets(exp.scenario());
        const ReferenceSampler reference(exp.network(), GetParam(), targets, period());
        exp.run_until_s(seconds);

        const QueueTracer& tracer = backlog() ? exp.buffers() : exp.cw_tracer();
        const util::SimTime end = util::from_seconds(seconds);
        std::size_t samples = 0;
        util::SimTime earliest = end;
        util::SimTime latest = 0;
        bool varied = false;
        for (const QueueTracer::Target& t : targets) {
            const util::TimeSeries& want = reference.trace(t.node);
            EXPECT_GE(want.size(), 6u) << "node " << t.node;
            if (want.size() < 6) continue;
            samples += want.size();
            earliest = std::min(earliest, want.times().front());
            latest = std::max(latest, want.times().front());
            varied = varied || std::any_of(want.values().begin(), want.values().end(),
                                           [&](double v) { return v != want.values().front(); });
            EXPECT_EQ(tracer.max(t.node),
                      *std::max_element(want.values().begin(), want.values().end()))
                << "node " << t.node;
            if (streaming) {
                util::RunningStats whole;
                for (const double v : want.values()) whole.add(v);
                EXPECT_EQ(tracer.mean(t.node, 0, 1), whole.mean()) << "node " << t.node;
                continue;
            }
            const util::TimeSeries got = tracer.trace(t.node);
            EXPECT_EQ(got.times(), want.times()) << "node " << t.node;
            EXPECT_EQ(got.values(), want.values()) << "node " << t.node;
            const std::size_t n = want.size();
            const std::vector<std::pair<util::SimTime, util::SimTime>> windows = {
                {0, end + 1},                                // the whole run
                {end + kSecond, end + 2 * kSecond},          // empty: after the run
                {0, want.times().front()},                   // ends before the first sample
                {want.times()[2], want.times()[n / 2]},      // half-open: from in, to out
                {want.times()[1] + 1, want.times()[5] + 1},  // edges between samples
            };
            for (const auto& [from, to] : windows)
                EXPECT_EQ(tracer.mean(t.node, from, to), want.mean_between(from, to))
                    << "node " << t.node << " window [" << from << ", " << to << ")";
        }
        EXPECT_TRUE(varied);  // some queue or window moved, so the match is not vacuous
        EXPECT_EQ(tracer.stored_samples(), streaming ? 0u : samples);
        return {earliest, latest};
    }
};

TEST_P(QueueTracerColumns, MatchReferenceSamplerOnChain)
{
    // The flow starts at 5 s: a backlog column starts at the first sweep
    // regardless, while every CW queue first appears after several sweeps,
    // so every CW column starts past index 0 of its time column.
    const auto [earliest, latest] =
        expect_matches_reference(net::make_line(4, 40, 3), 30.0, false);
    if (backlog()) {
        EXPECT_EQ(earliest, period());
        EXPECT_EQ(latest, period());
    } else {
        EXPECT_GE(earliest, 5 * kSecond);
        EXPECT_GE(latest, earliest);
    }
}

TEST_P(QueueTracerColumns, MatchReferenceSamplerAcrossShards)
{
    // The second island's flow starts late: its CW columns begin mid-sweep
    // while the first island's begin at the first sweep instants.
    net::Scenario scenario = two_islands();
    scenario.flows.back().start_s = 6.5;
    const auto [earliest, latest] = expect_matches_reference(std::move(scenario), 30.0, false);
    if (backlog()) {
        EXPECT_EQ(earliest, period());
        EXPECT_EQ(latest, period());
    } else {
        EXPECT_LE(earliest, 2 * kSecond);
        EXPECT_GE(latest, 7 * kSecond);
    }
}

TEST_P(QueueTracerColumns, StreamingStatsMatchReferenceSampler)
{
    expect_matches_reference(net::make_line(4, 40, 3), 30.0, true);
    expect_matches_reference(two_islands(), 30.0, true);
}

TEST_P(QueueTracerColumns, RejectsRepeatedNodesStreamingTraceAndUntrackedNodes)
{
    net::Scenario s = net::make_line(2, 100, 3);
    EXPECT_THROW(QueueTracer(*s.network, GetParam(), {{0, 1}, {1, 2}, {0, 2}}, kSecond),
                 std::invalid_argument);
    QueueTracer streaming(*s.network, GetParam(), {{0, 1}}, kSecond, /*streaming=*/true);
    EXPECT_THROW(streaming.trace(0), std::logic_error);
    EXPECT_THROW(streaming.mean(1, 0, kSecond), std::invalid_argument);
    EXPECT_THROW(streaming.max(1), std::invalid_argument);
    QueueTracer tracer(*s.network, GetParam(), {{0, 1}}, kSecond);
    EXPECT_THROW(tracer.trace(1), std::invalid_argument);
    EXPECT_THROW(tracer.mean(1, 0, kSecond), std::invalid_argument);
    EXPECT_THROW(tracer.max(1), std::invalid_argument);
}

TEST_P(QueueTracerColumns, SampleBeyondSixteenBitsThrowsInsteadOfWrapping)
{
    net::Network::Config config = net::testbed_config(3);
    config.mac.queue_capacity = 80'000;
    net::Scenario s = net::make_chain(config, 1, 200.0, 0.0, 1.0);
    QueueTracer tracer(*s.network, GetParam(), {{0, 1}}, kSecond);
    tracer.start();
    if (backlog()) {
        for (std::uint64_t seq = 0; seq < 70'000; ++seq) {
            net::Packet packet;
            packet.flow_id = 0;
            packet.seq = seq;
            packet.src = 0;
            packet.dst = 1;
            packet.bytes = 100;
            ASSERT_TRUE(s.network->node(0).send(packet));
        }
    } else {
        s.network->node(0).mac().set_queue_cw_min(mac::QueueKey{1, true}, 1 << 16);
    }
    EXPECT_THROW(s.network->run_until(kSecond + 1), std::overflow_error);
}

INSTANTIATE_TEST_SUITE_P(Quantities, QueueTracerColumns,
                         testing::Values(Quantity::kBacklog, Quantity::kCwMin),
                         [](const testing::TestParamInfo<Quantity>& info) {
                             return info.param == Quantity::kBacklog ? "Backlog" : "CwMin";
                         });

// ------------------------------------------------------------- experiment

TEST(Experiment, ModeNames)
{
    EXPECT_EQ(mode_name(Mode::kBaseline80211), "802.11");
    EXPECT_EQ(mode_name(Mode::kEzFlow), "EZ-flow");
    EXPECT_EQ(mode_name(Mode::kPenalty), "penalty-q");
    EXPECT_EQ(mode_name(Mode::kPaced), "EZ-flow (paced)");
}

TEST(Experiment, CollectsTransmittersAcrossFlows)
{
    ExperimentOptions options;
    Experiment exp(net::make_testbed(5, 10, 5, 10, 4), options);
    // F1: N0..N6 transmit; F2 adds N0' (id 8).
    EXPECT_EQ(exp.transmitting_nodes().size(), 8u);
}

TEST(Experiment, RunCoversLatestFlowAndDrain)
{
    ExperimentOptions options;
    Experiment exp(net::make_line(2, 30, 4), options);
    exp.run();
    EXPECT_GE(exp.network().now(), util::from_seconds(35.0));
}

TEST(Experiment, SummaryAndFairnessKnownScenario)
{
    ExperimentOptions options;
    options.mode = Mode::kBaseline80211;
    Experiment exp(net::make_line(2, 60, 4), options);
    exp.run();
    const auto summary = exp.summarize(0, 20.0, 60.0);
    EXPECT_GT(summary.mean_kbps, 100.0);
    EXPECT_GT(summary.mean_delay_s, 0.0);
    EXPECT_DOUBLE_EQ(exp.fairness({0}, 20.0, 60.0), 1.0);
    EXPECT_THROW(exp.summarize(9, 0, 1), std::invalid_argument);
    EXPECT_THROW(exp.throughput(9), std::invalid_argument);
    EXPECT_THROW(exp.fairness({9}, 0, 1), std::invalid_argument);
}

TEST(Experiment, UnmeasuredWindowReportsZeroSamples)
{
    ExperimentOptions options;
    Experiment exp(net::make_line(2, 30, 4), options);
    exp.run();
    const auto measured = exp.summarize(0, 10.0, 30.0);
    EXPECT_GT(measured.throughput_samples, 0);
    EXPECT_GT(measured.delay_samples, 0);
    // A window long after the drain fabricates zeros in every statistic;
    // the sample counts are what let callers tell them apart.
    const auto empty = exp.summarize(0, 500.0, 600.0);
    EXPECT_EQ(empty.throughput_samples, 0);
    EXPECT_EQ(empty.delay_samples, 0);
    EXPECT_DOUBLE_EQ(empty.mean_kbps, 0.0);
}

TEST(Sweep, UnmeasuredWindowAggregatesToZeroSeedCells)
{
    // The aggregation guard: a window no seed ever measured must land in
    // the result JSON as n=0 (missing data), not as a measured zero that
    // drags the across-seed mean down.
    const SweepCell cell{ExperimentFactory(ScenarioSpec::line(2, 10.0), ExperimentOptions{}),
                         summarize_windows({SweepWindow{"active", 6.0, 15.0, {0}},
                                            SweepWindow{"after", 500.0, 600.0, {0}}})};
    SweepConfig config;
    config.seeds = {3, 4};
    const RunResult folded = fold_seeds(SweepRunner(1).run(cell, config).per_seed);
    const WindowResult& active = folded.windows[0];
    const WindowResult& after = folded.windows[1];
    EXPECT_EQ(active.find("F0.kbps")->n, 2);
    EXPECT_EQ(after.find("F0.kbps")->n, 0);
    EXPECT_EQ(after.find("F0.delay_s")->n, 0);
    EXPECT_DOUBLE_EQ(after.find("F0.kbps")->mean, 0.0);
}

/// One seed's cell: window "w" holding the given metrics.
RunResult seed_cell(std::vector<std::pair<std::string, MetricStat>> metrics)
{
    RunResult cell{"cell", {}};
    cell.add_window("w").metrics = std::move(metrics);
    return cell;
}

TEST(FoldSeeds, OneSeedSerializesLikeItsPointValues)
{
    const double value = 0.1 + 0.2;  // not exactly representable: a mean must not round it
    FigureResult point;
    point.add_cell("cell").add_window("w").set("x", metric_point(value));
    point.cells[0].windows[0].set("unmeasured", MetricStat{0.0, 0.0, 0});
    FigureResult folded;
    folded.cells.push_back(fold_seeds({seed_cell(
        {{"x", metric_point(value)}, {"unmeasured", MetricStat{0.0, 0.0, 0}}})}));
    EXPECT_EQ(folded.to_json().dump(), point.to_json().dump());
}

TEST(FoldSeeds, UnmeasuredSeedsKeepTheKeyAndDoNotCount)
{
    const RunResult folded =
        fold_seeds({seed_cell({{"delay_s", metric_point(2.0)}, {"kbps", metric_point(100.0)}}),
                    seed_cell({{"delay_s", MetricStat{0.0, 0.0, 0}}, {"kbps", metric_point(50.0)}}),
                    seed_cell({{"delay_s", metric_point(4.0)}, {"kbps", metric_point(75.0)}})});
    ASSERT_EQ(folded.windows.size(), 1u);
    const WindowResult& window = folded.windows[0];
    ASSERT_EQ(window.metrics.size(), 2u);
    EXPECT_EQ(window.metrics[0].first, "delay_s");  // the first seed's order
    EXPECT_EQ(window.find("delay_s")->n, 2);
    EXPECT_DOUBLE_EQ(window.find("delay_s")->mean, 3.0);  // not dragged toward 0
    EXPECT_GT(window.find("delay_s")->ci95, 0.0);
    EXPECT_EQ(window.find("kbps")->n, 3);
    EXPECT_DOUBLE_EQ(window.find("kbps")->mean, 75.0);
}

TEST(FoldSeeds, SeedsThatDisagreeOnNamesThrow)
{
    const RunResult base = seed_cell({{"a", metric_point(1.0)}, {"b", metric_point(2.0)}});
    RunResult renamed = base;
    renamed.windows[0].metrics[1].first = "c";
    RunResult reordered = seed_cell({{"b", metric_point(2.0)}, {"a", metric_point(1.0)}});
    RunResult missing = seed_cell({{"a", metric_point(1.0)}});
    RunResult other_window = base;
    other_window.windows[0].label = "v";
    RunResult other_cell = base;
    other_cell.label = "other";
    for (const RunResult& bad : {renamed, reordered, missing, other_window, other_cell})
        EXPECT_THROW(fold_seeds({base, bad}), std::logic_error);
    EXPECT_THROW(fold_seeds({}), std::invalid_argument);
    EXPECT_NO_THROW(fold_seeds({base, base}));
}

TEST(DropAudit, PacedRunBalancesWithPacerBacklogMidRun)
{
    // The pacer holds packets outside the MAC queues and loses some
    // (full paced queue, or a release the full MAC queue refused); the
    // ledger must count both, mid-run as well as at the end.
    ExperimentOptions options;
    options.mode = Mode::kPaced;
    Experiment exp(net::make_line(4, 60, 4), options);
    exp.run_until_s(35.0);  // settles the audit; throws on an imbalance
    const DropLedger mid = audit_drop_accounting(exp);
    std::uint64_t held = 0;
    std::uint64_t release_drops = 0;
    for (net::NodeId node = 0; node < 4; ++node) {
        const core::PacedEzFlowAgent* pacer = exp.paced_agent(node);
        ASSERT_NE(pacer, nullptr) << "node " << node;
        held += pacer->held();
        release_drops += pacer->queue_toward(node + 1)->release_drops();
    }
    EXPECT_EQ(exp.paced_agent(4), nullptr);  // the destination does not transmit
    EXPECT_GT(held, 0u);
    EXPECT_GT(release_drops, 0u);
    EXPECT_GE(mid.backlog, held);
    EXPECT_GT(mid.pacer_drops, release_drops);  // refused pushes count too
    EXPECT_GE(mid.accounted(), mid.generated);
    exp.run();
    EXPECT_GT(audit_drop_accounting(exp).delivered, mid.delivered);
}

TEST(Experiment, RunUntilSettlesTheAudit)
{
    // Pop a MAC queue packet behind the MAC's back: the packet leaves no
    // trace in any bucket, so the next run_until_s must throw.
    Experiment exp(net::make_line(2, 30, 4), ExperimentOptions{});
    exp.run_until_s(10.0);
    mac::MacQueue* victim = nullptr;
    for (const auto& queue : exp.network().node(0).mac().queues().queues())
        if (queue->size() >= 2) victim = queue.get();
    ASSERT_NE(victim, nullptr);
    victim->pop();
    EXPECT_THROW(exp.run_until_s(10.0), std::logic_error);
}

TEST(Experiment, CountsEachRunAndItsEventsOnce)
{
    const PerfTotals before = perf_totals();
    Experiment exp(net::make_line(2, 20, 4), ExperimentOptions{});
    exp.run_until_s(10.0);
    exp.run_until_s(20.0);
    exp.run();
    const PerfTotals after = perf_totals();
    EXPECT_EQ(after.runs - before.runs, 1u);
    EXPECT_EQ(after.events - before.events, exp.network().total_processed());
    EXPECT_EQ(after.shards_since(before), 1);
}

TEST(Experiment, EzFlowModeInstallsAgents)
{
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    Experiment exp(net::make_line(3, 10, 4), options);
    EXPECT_NE(exp.agent(0), nullptr);
    EXPECT_NE(exp.agent(2), nullptr);
    EXPECT_EQ(exp.agent(3), nullptr);  // destination has no agent
}

TEST(Experiment, BaselineModeHasNoAgents)
{
    ExperimentOptions options;
    Experiment exp(net::make_line(3, 10, 4), options);
    EXPECT_EQ(exp.agent(0), nullptr);
}

TEST(Experiment, PenaltyModeSetsStaticWindows)
{
    ExperimentOptions options;
    options.mode = Mode::kPenalty;
    options.penalty.relay_cw = 1 << 4;
    options.penalty.q = 1.0 / 16.0;
    Experiment exp(net::make_line(3, 10, 4), options);
    auto& net = exp.network();
    EXPECT_EQ(net.node(0).mac().queue_cw_min(mac::QueueKey{1, true}), 256);
    EXPECT_EQ(net.node(1).mac().queue_cw_min(mac::QueueKey{2, false}), 16);
}

TEST(Penalty, RejectsBadConfig)
{
    net::Scenario s = net::make_line(2, 10, 4);
    core::PenaltyConfig bad;
    bad.q = 0.0;
    EXPECT_THROW(core::apply_penalty_policy(*s.network, bad), std::invalid_argument);
    bad = core::PenaltyConfig{};
    bad.relay_cw = -1;
    EXPECT_THROW(core::apply_penalty_policy(*s.network, bad), std::invalid_argument);
}

}  // namespace
}  // namespace ezflow::analysis

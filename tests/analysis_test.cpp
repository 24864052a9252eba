#include <gtest/gtest.h>

#include "analysis/drop_audit.h"
#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/metrics.h"
#include "analysis/recorder.h"
#include "analysis/result.h"
#include "analysis/sweep.h"
#include "core/pacer.h"
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

TEST(BufferTracer, SamplesPeriodically)
{
    net::Scenario s = net::make_line(2, 100, 3);
    BufferTracer tracer(*s.network, {1}, kSecond);
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

TEST(CwTracer, TracksQueueCwMin)
{
    net::Scenario s = net::make_line(2, 100, 3);
    CwTracer tracer(*s.network, {{0, 1}}, kSecond);
    tracer.start();
    traffic::CbrSource source(*s.network, 0, 1000, 50'000.0);
    source.activate(0, 10 * kSecond);
    s.network->node(0).mac().set_queue_cw_min(mac::QueueKey{1, true}, 1 << 8);
    s.network->run_until(10 * kSecond + 1);
    ASSERT_FALSE(tracer.trace(0).empty());
    EXPECT_DOUBLE_EQ(tracer.trace(0).values().back(), 256.0);
}

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
    ExperimentFactory factory(ScenarioSpec::line(2, 10.0), ExperimentOptions{});
    SweepConfig config;
    config.windows = {SweepWindow{"active", 6.0, 15.0, {0}},
                      SweepWindow{"after", 500.0, 600.0, {0}}};
    config.seeds = {3, 4};
    const SweepResult sweep = SweepRunner(1).run(factory, config);
    const FlowAggregate& active = sweep.windows[0].flows[0];
    const FlowAggregate& after = sweep.windows[1].flows[0];
    EXPECT_EQ(active.mean_kbps.count(), 2);
    EXPECT_EQ(after.mean_kbps.count(), 0);
    EXPECT_EQ(after.mean_delay_s.count(), 0);
    EXPECT_EQ(metric_from_stats(after.mean_kbps).n, 0);
    EXPECT_DOUBLE_EQ(metric_from_stats(after.mean_kbps).mean, 0.0);
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

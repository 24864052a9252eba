// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// event queue churn, BOE matching, channel dispatch, CAA decisions and
// the model's pattern sampler. These bound the simulator's cost per
// simulated packet, which is what makes the paper-scale runs fast.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "core/boe.h"
#include "core/caa.h"
#include "mac/contention.h"
#include "mac/dcf.h"
#include "mac/mac_queue.h"
#include "model/walk.h"
#include "net/packet.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "phy/channel.h"
#include "sim/event_fn.h"
#include "sim/scheduler.h"
#include "traffic/source.h"

namespace {

using namespace ezflow;

void BM_SchedulerScheduleRun(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Scheduler scheduler;
        std::int64_t sum = 0;
        for (int i = 0; i < state.range(0); ++i)
            scheduler.schedule_at(i % 997, [&sum] { ++sum; });
        scheduler.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

void BM_SchedulerCancel(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Scheduler scheduler;
        std::vector<sim::EventId> ids;
        ids.reserve(static_cast<std::size_t>(state.range(0)));
        for (int i = 0; i < state.range(0); ++i)
            ids.push_back(scheduler.schedule_at(i + 1, [] {}));
        for (const auto& id : ids) scheduler.cancel(id);
        scheduler.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerCancel)->Arg(4096);

void BM_BoeMatch(benchmark::State& state)
{
    core::BufferOccupancyEstimator boe(static_cast<std::size_t>(state.range(0)));
    std::uint64_t seq = 0;
    for (int i = 0; i < state.range(0); ++i)
        boe.on_packet_sent(net::packet_checksum(1, seq++, 0, 5, 1000));
    std::uint64_t heard = 0;
    for (auto _ : state) {
        boe.on_packet_sent(net::packet_checksum(1, seq++, 0, 5, 1000));
        benchmark::DoNotOptimize(boe.on_packet_overheard(net::packet_checksum(1, heard++, 0, 5, 1000)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoeMatch)->Arg(100)->Arg(1000);

void BM_CaaDecision(benchmark::State& state)
{
    core::ChannelAccessAdaptation caa(core::CaaConfig{}, nullptr);
    int occupancy = 0;
    for (auto _ : state) {
        caa.on_sample(occupancy);
        occupancy = (occupancy + 7) % 60;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaaDecision);

void BM_PacketChecksum(benchmark::State& state)
{
    std::uint64_t seq = 0;
    for (auto _ : state) benchmark::DoNotOptimize(net::packet_checksum(1, seq++, 0, 5, 1000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketChecksum);

void BM_ModelStep(benchmark::State& state)
{
    model::RandomWalkModel::Config config;
    config.hops = static_cast<int>(state.range(0));
    model::RandomWalkModel walk(config, util::Rng(7));
    for (auto _ : state) benchmark::DoNotOptimize(walk.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelStep)->Arg(4)->Arg(8);

void BM_RoutingLookup(benchmark::State& state)
{
    // Per-forwarded-packet routing cost at 1k flows x 64-hop paths: one
    // flow lookup plus one row index (O(1)).
    constexpr int kFlows = 1000;
    constexpr int kHops = 64;
    net::RoutingTable table;
    std::vector<net::NodeId> path;
    for (int n = 0; n <= kHops; ++n) path.push_back(n);
    for (int f = 0; f < kFlows; ++f) table.add_flow(f, path);
    int flow = 0;
    net::NodeId node = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.next_hop_or_none(flow, node));
        flow = (flow + 7) % kFlows;
        node = (node + 13) % kHops;  // stays short of the destination
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingLookup);

net::Packet bench_packet(std::uint64_t seq)
{
    net::Packet p;
    p.uid = seq;
    p.seq = seq;
    p.flow_id = 0;
    p.bytes = 1000;
    return p;
}

/// Saturated single-hop contention bed: `nodes` DcfMacs in mutual carrier
/// sense, each flooding its neighbour, CWmin forced to `cw` (EZ-Flow
/// adapts CWmin within [2^4, 2^15], so large windows are the production
/// regime — and the regime where per-slot backoff events dominate).
struct ContentionBed {
    sim::Scheduler scheduler;
    phy::Channel channel;
    mac::ContentionCoordinator coordinator{scheduler};
    std::vector<std::unique_ptr<phy::NodePhy>> phys;
    std::vector<std::unique_ptr<mac::DcfMac>> macs;

    struct NullCallbacks final : mac::MacCallbacks {
        void mac_rx(const phy::Frame&, std::uint64_t, std::uint32_t) override {}
        void mac_sniffed(const phy::Frame&) override {}
        void mac_first_tx(const mac::QueueKey&, const net::Packet&) override {}
        void mac_tx_success(const mac::QueueKey&, const net::Packet&) override {}
        void mac_tx_drop(const mac::QueueKey&, const net::Packet&) override {}
    } callbacks;
    std::uint64_t next_seq = 0;

    ContentionBed(int nodes, int cw) : channel(scheduler, util::Rng(7), phy::PhyParams{})
    {
        mac::MacParams mp;
        mp.cw_min = cw;
        for (int i = 0; i < nodes; ++i) {
            phys.push_back(
                std::make_unique<phy::NodePhy>(i, phy::Position{i * 10.0, 0.0}, scheduler));
            channel.attach(*phys.back());
            macs.push_back(std::make_unique<mac::DcfMac>(*phys.back(), scheduler, coordinator,
                                                         util::Rng(1000 + i), mp));
            macs.back()->set_callbacks(&callbacks);
        }
        top_up();
    }

    void top_up()
    {
        const int nodes = static_cast<int>(macs.size());
        for (int i = 0; i < nodes; ++i) {
            const mac::QueueKey key{(i + 1) % nodes, true};
            while (macs[i]->enqueue(key, bench_packet(next_seq++))) {
            }
        }
        scheduler.schedule_in(10 * util::kMillisecond, [this] { top_up(); });
    }
};

void BM_BackoffContention(benchmark::State& state)
{
    // Simulated-time throughput of N contending MACs. items = simulated
    // microseconds; the events counter exposes how many scheduler events
    // one simulated second of contention costs (the quantity the batched
    // coordinator collapses).
    const int nodes = static_cast<int>(state.range(0));
    const int cw = static_cast<int>(state.range(1));
    const util::SimTime sim_us = 2 * util::kSecond;
    std::uint64_t events = 0;
    std::uint64_t attempts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ContentionBed bed(nodes, cw);
        state.ResumeTiming();
        bed.scheduler.run_until(sim_us);
        events += bed.scheduler.processed();
        for (const auto& mac : bed.macs) attempts += mac->data_attempts();
    }
    state.SetItemsProcessed(state.iterations() * sim_us);
    state.counters["events"] =
        benchmark::Counter(static_cast<double>(events) / static_cast<double>(state.iterations()));
    state.counters["events_per_s"] = benchmark::Counter(static_cast<double>(events),
                                                        benchmark::Counter::kIsRate);
    state.counters["tx_attempts"] =
        benchmark::Counter(static_cast<double>(attempts) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BackoffContention)
    ->Args({8, 32})
    ->Args({8, 1024})
    ->Args({16, 1024})
    ->Args({8, 16384})
    ->Unit(benchmark::kMillisecond);

void BM_FrameFanout(benchmark::State& state)
{
    // Per-receiver cost of fanning one transmission out to 64 signal-end
    // events: construct, invoke and destroy the event batch. Arg(0)
    // reproduces the pre-PR-5 shape — every per-receiver event captures
    // the full Frame (payload Packet included, ~96 B) by value, which
    // also overflows the EventFn inline buffer and heap-allocates per
    // signal. Arg(1) is the single-copy pipeline — one pooled
    // FrameRecord per transmission, every event captures a pointer-sized
    // FrameRef and stays inline. The shared scheduler arena cost is kept
    // out so the ratio isolates exactly what the fan-out refactor
    // changed.
    const bool single_copy = state.range(0) != 0;
    constexpr int kReceivers = 64;
    phy::FramePool pool;
    phy::Frame proto;
    proto.type = phy::FrameType::kData;
    proto.tx_node = 0;
    proto.rx_node = 1;
    proto.mpdus.push_back(phy::Mpdu{bench_packet(1), 1, 0});
    std::uint64_t sink = 0;
    std::vector<sim::EventFn> batch;
    batch.reserve(kReceivers);
    const std::uint64_t copies_before = phy::Frame::copies();
    bool inline_events = true;
    for (auto _ : state) {
        if (single_copy) {
            const phy::FrameRef ref = pool.make(phy::Frame(proto));
            for (int r = 0; r < kReceivers; ++r)
                batch.emplace_back([ref = ref, &sink] {
                    sink += static_cast<std::uint64_t>(ref->mpdus[0].packet.bytes);
                });
        } else {
            for (int r = 0; r < kReceivers; ++r)
                batch.emplace_back([frame = proto, &sink] {
                    sink += static_cast<std::uint64_t>(frame.mpdus[0].packet.bytes);
                });
        }
        inline_events = inline_events && batch.front().is_inline();
        for (sim::EventFn& event : batch) event();
        batch.clear();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kReceivers);
    state.counters["frame_copies_per_tx"] =
        benchmark::Counter(static_cast<double>(phy::Frame::copies() - copies_before) /
                           static_cast<double>(state.iterations()));
    state.counters["inline_events"] = benchmark::Counter(inline_events ? 1.0 : 0.0);
}
BENCHMARK(BM_FrameFanout)->Arg(0)->Arg(1);

void BM_SaturatedSource(benchmark::State& state)
{
    // Scheduler events needed per simulated second when a greedy CBR
    // source offers 10x the link capacity. The backpressure gate parks
    // the source on queue-vacancy callbacks, so only accepted generations
    // cost events.
    const util::SimTime sim_us = 2 * util::kSecond;
    std::uint64_t events = 0;
    std::uint64_t generated = 0;
    for (auto _ : state) {
        state.PauseTiming();
        net::Scenario scenario = net::make_line(1, 1000.0, 7);
        net::Network& network = *scenario.network;
        traffic::CbrSource source(network, 0, 1000, 8e6);
        source.activate(0, sim_us);
        state.ResumeTiming();
        network.run_until(sim_us);
        events += network.scheduler().processed();
        generated += source.stats().generated;
    }
    state.SetItemsProcessed(state.iterations() * sim_us);
    state.counters["events"] =
        benchmark::Counter(static_cast<double>(events) / static_cast<double>(state.iterations()));
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["generated"] = benchmark::Counter(static_cast<double>(generated) /
                                                     static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SaturatedSource)->Unit(benchmark::kMillisecond);

void BM_ChannelFanout(benchmark::State& state)
{
    // Per-transmission delivery cost vs node count on a 200 m-spaced line:
    // carrier sense reaches ~2 hops either side, so the reachability cull
    // keeps the cost flat as the line grows.
    const int nodes = static_cast<int>(state.range(0));
    sim::Scheduler scheduler;
    phy::Channel channel(scheduler, util::Rng(7), phy::PhyParams{});
    std::vector<std::unique_ptr<phy::NodePhy>> phys;
    for (int i = 0; i < nodes; ++i) {
        phys.push_back(std::make_unique<phy::NodePhy>(i, phy::Position{i * 200.0, 0.0}, scheduler));
        channel.attach(*phys.back());
    }
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    frame.tx_node = nodes / 2;
    frame.mpdus.push_back(phy::Mpdu{bench_packet(1), 1, 0});
    for (auto _ : state) {
        phys[static_cast<std::size_t>(nodes) / 2]->start_tx(frame);
        scheduler.run();  // drain the signal-end and tx-end events
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["reachable"] = benchmark::Counter(
        static_cast<double>(channel.reachable_count(static_cast<net::NodeId>(nodes / 2))));
}
BENCHMARK(BM_ChannelFanout)->Arg(16)->Arg(64)->Arg(256);

void BM_FourHopSimulatedSecond(benchmark::State& state)
{
    // Cost of simulating one second of the saturated 4-hop chain.
    for (auto _ : state) {
        state.PauseTiming();
        net::Scenario scenario = net::make_line(4, 3600.0, 7);
        analysis::ExperimentOptions options;
        options.mode = analysis::Mode::kEzFlow;
        analysis::Experiment exp(std::move(scenario), options);
        state.ResumeTiming();
        exp.run_until_s(1.0 * static_cast<double>(state.range(0)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FourHopSimulatedSecond)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// PHY microbenchmarks: per-link lookup in a populated LinkTable (the
// ladder's tables stay empty), interference-ledger maintenance at signal
// edges and the cumulative-SINR capture decision.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "phy/frame.h"
#include "phy/link_table.h"
#include "phy/phy.h"
#include "sim/scheduler.h"

namespace {

using namespace ezflow;
using phy::LinkTable;

/// Directed links of a synthetic topology: every node talks to its
/// neighbours within two hops either side, the shape the Channel's
/// per-receiver lookups actually see on the chain/grid workloads.
std::vector<std::pair<net::NodeId, net::NodeId>> synthetic_links(int nodes)
{
    std::vector<std::pair<net::NodeId, net::NodeId>> links;
    for (int tx = 0; tx < nodes; ++tx)
        for (int d = -2; d <= 2; ++d) {
            const int rx = tx + d;
            if (d == 0 || rx < 0 || rx >= nodes) continue;
            links.emplace_back(tx, rx);
        }
    return links;
}

void BM_LinkLookupFlat(benchmark::State& state)
{
    const auto links = synthetic_links(static_cast<int>(state.range(0)));
    LinkTable<double> table;
    for (const auto& [tx, rx] : links) table.insert_or_assign(tx, rx, 0.25);
    double sum = 0.0;
    for (auto _ : state) {
        for (const auto& [tx, rx] : links) {
            const double* value = table.find(tx, rx);
            if (value != nullptr) sum += *value;
            // Misses are as hot as hits: most receivers have no model.
            benchmark::DoNotOptimize(table.find(rx + 1, tx));
        }
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * links.size()));
}
BENCHMARK(BM_LinkLookupFlat)->Arg(16)->Arg(256);

void BM_LedgerUpdate(benchmark::State& state)
{
    // Interference-ledger maintenance: signal_start/signal_end edges on a
    // node that is neither transmitting nor locked, the pure bookkeeping
    // cost every overheard transmission pays at every receiver in range.
    sim::Scheduler scheduler;
    phy::NodePhy node(0, phy::Position{0.0, 0.0}, scheduler);
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    constexpr int kBatch = 64;
    std::uint64_t id = 1;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i) {
            phy::RxEvent rx;
            rx.signal_id = id + static_cast<std::uint64_t>(i);
            rx.frame = &frame;
            rx.power_w = 1e-10;
            rx.sensed = true;
            node.signal_start(rx);
        }
        for (int i = kBatch - 1; i >= 0; --i)
            node.signal_end(id + static_cast<std::uint64_t>(i), frame);
        id += kBatch;
        benchmark::DoNotOptimize(node.interference_ledger_w());
    }
    // One item = one ledger update (a start or an end edge).
    state.SetItemsProcessed(state.iterations() * 2 * kBatch);
}
BENCHMARK(BM_LedgerUpdate);

void BM_SinrCaptureDecision(benchmark::State& state)
{
    // Cumulative-SINR capture test rate: a locked reception re-evaluated
    // against the exact interference sum at every interferer arrival.
    sim::Scheduler scheduler;
    phy::NodePhy node(0, phy::Position{0.0, 0.0}, scheduler);
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    constexpr int kInterferers = 32;
    std::uint64_t id = 1;
    for (auto _ : state) {
        phy::RxEvent lock;
        lock.signal_id = id;
        lock.frame = &frame;
        lock.power_w = 6.25e-10;
        lock.capture_threshold = 10.0;
        lock.in_delivery = true;
        lock.sensed = true;
        node.signal_start(lock);
        for (int i = 1; i <= kInterferers; ++i) {
            phy::RxEvent rx;
            rx.signal_id = id + static_cast<std::uint64_t>(i);
            rx.frame = &frame;
            rx.power_w = 1e-12;  // weak: the lock survives every re-check
            rx.sensed = true;
            node.signal_start(rx);
        }
        for (int i = kInterferers; i >= 1; --i)
            node.signal_end(id + static_cast<std::uint64_t>(i), frame);
        node.signal_end(id, frame);
        id += kInterferers + 1;
    }
    benchmark::DoNotOptimize(node.frames_decoded());
    // One item = one capture decision (lock + one per interferer arrival).
    state.SetItemsProcessed(state.iterations() * (kInterferers + 1));
}
BENCHMARK(BM_SinrCaptureDecision);

}  // namespace

BENCHMARK_MAIN();

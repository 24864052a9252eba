#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "analysis/experiment.h"
#include "net/node.h"
#include "net/topologies.h"

// Counting replacements of the global allocation functions: every block
// carries a header with its requested size, so the live byte count is
// exact. The nothrow and sized forms of the standard library forward to
// these.
namespace {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<long long> g_live_bytes{0};

void* counted_alloc(std::size_t size)
{
    void* block = std::malloc(size + kHeader);
    if (block == nullptr) throw std::bad_alloc();
    *static_cast<std::size_t*>(block) = size;
    g_live_bytes += static_cast<long long>(size);
    return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept
{
    if (p == nullptr) return;
    void* block = static_cast<char*>(p) - kHeader;
    g_live_bytes -= static_cast<long long>(*static_cast<std::size_t*>(block));
    std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace ezflow::analysis {
namespace {

/// Live heap bytes held, after a fault-free run, by an Experiment over a
/// 2-hop line plus `extra` bystanders. The bystanders stand 1 km apart on
/// a row 2 km from the line, out of range of the line and of each other.
long long run_footprint(int extra)
{
    const long long before = g_live_bytes.load();
    net::Scenario scenario = net::make_line(2, 1.0, 7);
    for (int i = 0; i < extra; ++i) scenario.network->add_node({1000.0 * i, 2000.0});
    Experiment experiment(std::move(scenario), ExperimentOptions{});
    experiment.run();
    EXPECT_GT(experiment.sink().flow(0).packets, 0u);
    return g_live_bytes.load() - before;
}

TEST(Footprint, BystanderHoldsOnlyItsNode)
{
    // A bystander keeps its Node and one slot in each dense per-node
    // vector (network, channel, routing), nothing it would build on first
    // use. The line has 3 nodes; 3 + 253 = 256 nodes fill the dense
    // vectors (which grow by doubling) to exactly their capacity, so
    // growth slack does not blur the per-bystander cost.
    constexpr int kExtra = 253;
    run_footprint(0);  // function-local statics and one-time tables
    const long long base = run_footprint(0);
    const long long grown = run_footprint(kExtra);
    const double per_bystander = static_cast<double>(grown - base) / kExtra;
    RecordProperty("bytes_per_bystander", std::to_string(per_bystander));
    EXPECT_GE(per_bystander, static_cast<double>(sizeof(net::Node)));
    EXPECT_LE(per_bystander, static_cast<double>(sizeof(net::Node) + 64));
}

}  // namespace
}  // namespace ezflow::analysis

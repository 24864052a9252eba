// net::RoutingTable keeps one next-hop row per flow and rewrites it inside
// every mutation. The property test races it against a test-local oracle
// that answers by scanning the stored paths (the semantics of the original
// map-based builder): across random flow sets and random add / update /
// suspend / resume sequences, including rejected mutations, every
// (flow, node) probe must agree.

#include "net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace ezflow::net {
namespace {

constexpr NodeId kNone = RoutingTable::kNoNextHop;

/// The reference: answer by scanning the flow's stored path.
struct PathScanOracle {
    std::map<int, std::vector<NodeId>> paths;
    std::set<int> suspended;

    NodeId next_hop(int flow_id, NodeId node) const
    {
        const auto it = paths.find(flow_id);
        if (it == paths.end() || suspended.count(flow_id) > 0) return kNone;
        const std::vector<NodeId>& p = it->second;
        for (std::size_t i = 0; i + 1 < p.size(); ++i)
            if (p[i] == node) return p[i + 1];
        return kNone;
    }
};

/// A random simple path of 2..max_len distinct nodes out of [0, universe).
std::vector<NodeId> random_path(util::Rng& rng, int universe, int max_len)
{
    std::vector<NodeId> pool;
    for (NodeId n = 0; n < universe; ++n) pool.push_back(n);
    const int want = rng.uniform_int(2, std::min(max_len, universe));
    std::vector<NodeId> path;
    for (int i = 0; i < want; ++i) {
        const int pick = rng.uniform_int(0, static_cast<int>(pool.size()) - 1);
        path.push_back(pool[static_cast<std::size_t>(pick)]);
        pool.erase(pool.begin() + pick);
    }
    return path;
}

/// A path add_flow/update_flow must reject: too short, a repeat, or a
/// negative id.
std::vector<NodeId> invalid_path(util::Rng& rng, int universe)
{
    std::vector<NodeId> path = random_path(rng, universe, 6);
    switch (rng.uniform_int(0, 2)) {
        case 0: return {path.front()};
        case 1: path.push_back(path.front()); return path;
        default: path[static_cast<std::size_t>(rng.uniform_int(0, 1))] = -1; return path;
    }
}

void expect_agrees(const RoutingTable& table, const PathScanOracle& oracle, int universe,
                   const std::vector<int>& probe_flows, int trial, int step)
{
    ASSERT_EQ(table.flow_count(), static_cast<int>(oracle.paths.size()));
    std::vector<int> ids;
    for (const auto& [id, path] : oracle.paths) {
        ids.push_back(id);
        EXPECT_EQ(table.path(id), path) << "trial " << trial << " step " << step;
        EXPECT_EQ(table.is_suspended(id), oracle.suspended.count(id) > 0);
    }
    EXPECT_EQ(table.flow_ids(), ids);
    for (const int flow_id : probe_flows) {
        for (NodeId node = -3; node < universe + 3; ++node)
            EXPECT_EQ(table.next_hop_or_none(flow_id, node), oracle.next_hop(flow_id, node))
                << "trial " << trial << " step " << step << " flow " << flow_id << " node "
                << node;
        EXPECT_EQ(table.next_hop_or_none(flow_id, std::numeric_limits<NodeId>::min()), kNone);
        EXPECT_EQ(table.next_hop_or_none(flow_id, std::numeric_limits<NodeId>::max()), kNone);
    }
}

TEST(RoutingTable, MatchesPathScanOracleUnderRandomMutations)
{
    util::Rng rng(20260728);
    for (int trial = 0; trial < 20; ++trial) {
        const int universe = rng.uniform_int(2, 40);
        // Packed or wildly sparse flow ids; negative ones too.
        const bool sparse_ids = rng.bernoulli(0.3);
        const auto draw_id = [&] {
            return sparse_ids ? rng.uniform_int(-1'000'000'000, 1'000'000'000)
                              : rng.uniform_int(0, 16);
        };
        RoutingTable table;
        PathScanOracle oracle;
        std::set<int> probe_set = {-1, 17, 1'000'000'001};
        const int initial = rng.uniform_int(0, 8);
        for (int f = 0; f < initial; ++f) {
            const int id = draw_id();
            if (oracle.paths.count(id) > 0) continue;
            oracle.paths[id] = random_path(rng, universe, 8);
            table.add_flow(id, oracle.paths[id]);
            probe_set.insert(id);
        }

        for (int step = 0; step < 300; ++step) {
            // Mostly existing flows, sometimes a fresh (unknown) id.
            int id = draw_id();
            if (!oracle.paths.empty() && rng.bernoulli(0.8)) {
                auto it = oracle.paths.begin();
                std::advance(it, rng.uniform_int(0, static_cast<int>(oracle.paths.size()) - 1));
                id = it->first;
            }
            probe_set.insert(id);
            const bool known = oracle.paths.count(id) > 0;
            const bool bad_path = rng.bernoulli(0.1);
            std::vector<NodeId> path =
                bad_path ? invalid_path(rng, universe) : random_path(rng, universe, 8);
            switch (rng.uniform_int(0, 3)) {
                case 0:
                    if (known || bad_path) {
                        EXPECT_THROW(table.add_flow(id, path), std::invalid_argument);
                    } else {
                        table.add_flow(id, path);
                        oracle.paths[id] = path;
                    }
                    break;
                case 1:
                    if (!known || bad_path) {
                        EXPECT_THROW(table.update_flow(id, path), std::invalid_argument);
                    } else {
                        table.update_flow(id, path);
                        oracle.paths[id] = path;
                        oracle.suspended.erase(id);
                    }
                    break;
                case 2:
                    if (!known) {
                        EXPECT_THROW(table.suspend_flow(id), std::invalid_argument);
                    } else {
                        table.suspend_flow(id);
                        oracle.suspended.insert(id);
                    }
                    break;
                default:
                    if (!known) {
                        EXPECT_THROW(table.resume_flow(id), std::invalid_argument);
                    } else {
                        table.resume_flow(id);
                        oracle.suspended.erase(id);
                    }
                    break;
            }
            const std::vector<int> probe_flows(probe_set.begin(), probe_set.end());
            expect_agrees(table, oracle, universe, probe_flows, trial, step);
            if (testing::Test::HasFailure()) return;
        }
    }
}

TEST(RoutingTable, FlowsAddedAfterLookupsAreServed)
{
    RoutingTable table;
    table.add_flow(1, {0, 1, 2});
    EXPECT_EQ(table.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(table.next_hop_or_none(2, 0), kNone);
    table.add_flow(2, {2, 1, 0});
    EXPECT_EQ(table.next_hop_or_none(2, 2), 1);
    EXPECT_EQ(table.next_hop_or_none(2, 1), 0);
    EXPECT_EQ(table.flow_count(), 2);
}

TEST(RoutingTable, LookupEdgeCases)
{
    RoutingTable table;
    table.add_flow(7, {3, 1, 4});
    EXPECT_EQ(table.next_hop_or_none(7, 3), 1);
    EXPECT_EQ(table.next_hop_or_none(7, 1), 4);
    EXPECT_EQ(table.next_hop_or_none(7, 4), kNone);   // destination
    EXPECT_EQ(table.next_hop_or_none(7, 0), kNone);   // off path, inside the row
    EXPECT_EQ(table.next_hop_or_none(7, 5), kNone);   // beyond the row
    EXPECT_EQ(table.next_hop_or_none(8, 3), kNone);   // unknown flow
    EXPECT_EQ(table.next_hop_or_none(7, -5), kNone);  // negative node
    EXPECT_EQ(table.next_hop_or_none(7, std::numeric_limits<NodeId>::min()), kNone);
    EXPECT_EQ(table.next_hop_or_none(7, std::numeric_limits<NodeId>::max()), kNone);
}

TEST(RoutingTable, RejectsNegativeNodeIds)
{
    RoutingTable table;
    EXPECT_THROW(table.add_flow(1, {-3, 0}), std::invalid_argument);
    EXPECT_THROW(table.add_flow(1, {0, std::numeric_limits<NodeId>::min()}),
                 std::invalid_argument);
    EXPECT_EQ(table.flow_count(), 0);
    table.add_flow(1, {0, 1});
    EXPECT_THROW(table.update_flow(1, {0, -1}), std::invalid_argument);
    EXPECT_EQ(table.path(1), (std::vector<NodeId>{0, 1}));  // rejected update changed nothing
    EXPECT_EQ(table.next_hop_or_none(1, 0), 1);
}

TEST(RoutingTable, EmptyTableHasNoNextHops)
{
    const RoutingTable table;
    EXPECT_EQ(table.next_hop_or_none(0, 0), kNone);
    EXPECT_EQ(table.flow_count(), 0);
    EXPECT_TRUE(table.flow_ids().empty());
    EXPECT_FALSE(table.is_suspended(0));
}

// ------------------------------------------------------- basic contract

TEST(Routing, NextHopFollowsPath)
{
    RoutingTable routing;
    routing.add_flow(1, {0, 1, 2, 3});
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(routing.next_hop_or_none(1, 1), 2);
    EXPECT_EQ(routing.next_hop_or_none(1, 2), 3);
}

TEST(Routing, DestinationHasNoNextHop)
{
    RoutingTable routing;
    routing.add_flow(1, {0, 1, 2});
    EXPECT_EQ(routing.next_hop_or_none(1, 2), kNone);
}

TEST(Routing, UnknownFlowThrows)
{
    RoutingTable routing;
    EXPECT_THROW(routing.path(9), std::invalid_argument);
    EXPECT_THROW(routing.update_flow(9, {0, 1}), std::invalid_argument);
    EXPECT_THROW(routing.suspend_flow(9), std::invalid_argument);
    EXPECT_THROW(routing.resume_flow(9), std::invalid_argument);
    EXPECT_EQ(routing.next_hop_or_none(9, 0), kNone);
}

TEST(Routing, RejectsBadPaths)
{
    RoutingTable routing;
    EXPECT_THROW(routing.add_flow(1, {0}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(1, {0, 1, 0}), std::invalid_argument);
    routing.add_flow(1, {0, 1});
    EXPECT_THROW(routing.add_flow(1, {2, 3}), std::invalid_argument);
}

TEST(Routing, FlowIdsSorted)
{
    RoutingTable routing;
    routing.add_flow(3, {0, 1});
    routing.add_flow(1, {2, 3});
    routing.add_flow(-4, {4, 5});
    EXPECT_EQ(routing.flow_ids(), (std::vector<int>{-4, 1, 3}));
}

// ------------------------------------------------ incremental route repair

TEST(RoutingRepair, UpdateSuspendResumeMatchFreshTable)
{
    // After any sequence of update/suspend/resume, the repaired table
    // answers every probe exactly like one built from scratch in the
    // same state.
    util::Rng rng(7);
    RoutingTable table;
    const std::vector<std::vector<NodeId>> pool = {
        {0, 1, 2, 3}, {3, 2, 1, 0}, {0, 4, 8}, {8, 4, 0}, {1, 5, 9, 13}, {2, 6, 10}};
    for (int f = 1; f <= 6; ++f) table.add_flow(f, pool[static_cast<std::size_t>(f - 1)]);

    for (int step = 0; step < 300; ++step) {
        const int flow = rng.uniform_int(1, 6);
        switch (rng.uniform_int(0, 2)) {
            case 0:
                table.update_flow(flow, pool[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
                break;
            case 1: table.suspend_flow(flow); break;
            default: table.resume_flow(flow); break;
        }
        RoutingTable fresh;
        for (int f = 1; f <= 6; ++f) {
            fresh.add_flow(f, table.path(f));
            if (table.is_suspended(f)) fresh.suspend_flow(f);
        }
        for (int f = 1; f <= 6; ++f)
            for (NodeId node = 0; node <= 14; ++node)
                ASSERT_EQ(table.next_hop_or_none(f, node), fresh.next_hop_or_none(f, node))
                    << "step " << step << " flow " << f << " node " << node;
    }
}

TEST(RoutingRepair, SuspendedFlowHasNoNextHops)
{
    RoutingTable routing;
    routing.add_flow(1, {0, 1, 2});
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    routing.suspend_flow(1);
    EXPECT_TRUE(routing.is_suspended(1));
    EXPECT_EQ(routing.next_hop_or_none(1, 0), kNone);
    EXPECT_EQ(routing.next_hop_or_none(1, 1), kNone);
    routing.suspend_flow(1);  // idempotent
    routing.resume_flow(1);
    EXPECT_FALSE(routing.is_suspended(1));
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(routing.path(1), (std::vector<NodeId>{0, 1, 2}));
}

}  // namespace
}  // namespace ezflow::net

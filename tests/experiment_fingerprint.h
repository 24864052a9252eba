#pragma once

// Shared per-node run fingerprint for equivalence tests: every counter
// that can observably differ when two runs diverge. The PHY-model,
// sharding, fault and A-MPDU suites all compare runs with this, so they
// enforce one notion of equivalence.

#include <cstdint>
#include <vector>

#include "analysis/experiment.h"
#include "net/network.h"

namespace ezflow::testutil {

/// `include_processed = false` drops the scheduler event count: shards=1
/// vs shards=K runs differ in bookkeeping events (one tracer sweep chain
/// per shard) while every radio/MAC/delivery counter stays identical.
inline std::vector<std::uint64_t> experiment_fingerprint(analysis::Experiment& experiment,
                                                         bool include_processed = true)
{
    net::Network& network = experiment.network();
    std::vector<std::uint64_t> print;
    print.push_back(network.total_transmissions());
    print.push_back(network.total_data_transmissions());
    if (include_processed) print.push_back(network.total_processed());
    for (int id = 0; id < network.node_count(); ++id) {
        const net::Node& node = network.node(id);
        print.push_back(node.phy().frames_decoded());
        print.push_back(node.phy().frames_corrupted());
        print.push_back(node.phy().frames_missed_busy());
        print.push_back(node.mac().data_attempts());
        print.push_back(node.mac().retransmissions());
        print.push_back(node.mac().successes());
        print.push_back(node.mac().acks_sent());
        print.push_back(node.delivered());
        print.push_back(node.forwarded());
    }
    return print;
}

}  // namespace ezflow::testutil

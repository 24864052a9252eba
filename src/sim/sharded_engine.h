#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::sim {

/// Space-parallel driver over per-shard Schedulers that share nothing.
///
/// The Network partitions nodes so that no radio (sense/delivery/
/// interference) edge crosses a shard boundary — see net::plan_shards —
/// and gives every shard its own Scheduler, Channel and
/// ContentionCoordinator. No event of one shard depends on another, so
/// each run_until(t) is one epoch: util::parallel_for runs every shard to
/// `t` on up to `threads` threads, then rethrows the lowest-numbered
/// shard's exception, if any. Every shard's event order is the same
/// whatever the thread count or interleaving.
class ShardedEngine {
public:
    /// `threads` <= 0 selects hardware concurrency.
    ShardedEngine(std::vector<Scheduler*> shards, int threads);

    /// Advance every shard to `t` in one epoch (no-op when `t` is not
    /// ahead of now()).
    void run_until(util::SimTime t);

    std::uint64_t epochs() const { return epochs_; }
    /// Always 0: shards share nothing. Kept for the ladder's counters.
    std::uint64_t handoffs() const { return 0; }
    util::SimTime now() const { return clock_; }

private:
    std::vector<Scheduler*> shards_;
    int threads_;
    util::SimTime clock_ = 0;
    std::uint64_t epochs_ = 0;
};

}  // namespace ezflow::sim

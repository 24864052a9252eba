#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
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
/// each run_until(t) is one epoch: every shard runs to `t` independently.
///
/// Epochs are dispatched to a persistent worker team of
/// min(threads, shards) members that lives as long as the engine. The
/// calling thread is member 0; the other members are std::threads,
/// started at the first epoch that needs them and joined by the
/// destructor (a one-member team never starts a thread). Shard
/// assignment is fixed: member m runs shards m, m + team, m + 2 team, …
/// The epoch barrier is a generation counter: the caller publishes the
/// target, bumps the generation, runs its own shards, then waits for an
/// atomic count of pending members to reach zero. Both sides spin for a
/// bounded number of iterations before parking on a condition variable,
/// so a short epoch hands over without a context switch, while on an
/// oversubscribed host a waiting thread soon gives up its core.
///
/// An exception thrown inside a shard is caught per shard; once every
/// member has finished the epoch, run_until() rethrows the
/// lowest-numbered shard's exception, whatever the thread interleaving.
/// The team stays usable afterwards.
///
/// Determinism: shards never share state, so every shard's event order
/// is the same whatever the worker count or interleaving.
class ShardedEngine {
public:
    struct Options {
        int threads = 0;  ///< <= 0: hardware concurrency
    };

    ShardedEngine(std::vector<Scheduler*> shards, Options options);
    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;
    /// Joins the worker team.
    ~ShardedEngine();

    /// Advance every shard to `t` in one epoch (no-op when `t` is not
    /// ahead of now()).
    void run_until(util::SimTime t);

    int shard_count() const { return static_cast<int>(shards_.size()); }
    std::uint64_t epochs() const { return epochs_; }
    /// Cross-shard handoffs delivered: always 0, since shards share
    /// nothing. Kept for the benchmark ladder's counters.
    std::uint64_t handoffs() const { return 0; }
    util::SimTime now() const { return clock_; }
    /// Worker threads running besides the caller (0 until the first
    /// multi-member epoch, and always 0 for a one-member team).
    int threads_started() const { return static_cast<int>(workers_.size()); }

private:
    /// Run member `member`'s shards to target_, catching per shard.
    void run_slice(int member);
    void worker_loop(int member, std::uint64_t seen_generation);
    /// Release the workers into the next epoch (or, when stopping_, out),
    /// expecting `pending` of them to report back.
    void next_generation(int pending);
    void start_workers();
    void stop_workers();

    std::vector<Scheduler*> shards_;

    // Worker team and epoch barrier (see the class comment). The caller
    // writes target_ and stopping_ before bumping generation_, which
    // publishes them to the workers.
    int team_ = 1;
    std::vector<std::exception_ptr> errors_;  ///< per shard, written by its member
    std::mutex park_mutex_;  ///< guards changes to generation_ and pending_
    std::condition_variable epoch_started_;
    std::condition_variable epoch_done_;
    // Workers poll generation_ while the caller polls pending_; separate
    // cache lines keep one side's polling off the other's writes.
    alignas(64) std::atomic<std::uint64_t> generation_{0};
    alignas(64) std::atomic<int> pending_{0};  ///< workers still inside the epoch
    bool stopping_ = false;

    util::SimTime clock_ = 0;
    util::SimTime target_ = 0;
    std::uint64_t epochs_ = 0;

    /// Members 1 .. team_ - 1; declared after everything they use.
    std::vector<std::thread> workers_;
};

}  // namespace ezflow::sim

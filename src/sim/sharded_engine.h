#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_fn.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::sim {

/// Conservative space-parallel driver over per-shard Schedulers.
///
/// The Network partitions nodes so that no radio (sense/delivery/
/// interference) edge crosses a shard boundary — see net::plan_shards —
/// and gives every shard its own Scheduler, Channel and
/// ContentionCoordinator. Radio causality is therefore intra-shard by
/// construction and no null messages are needed: the engine simply runs
/// all shards forward in lockstep epochs.
///
/// Epochs are dispatched to a persistent worker team of
/// min(threads, shards) members that lives as long as the engine. The
/// calling thread is member 0; the other members are std::threads,
/// started at the first epoch that needs them and joined by the
/// destructor (a one-member team never starts a thread). Shard
/// assignment is fixed: member m runs shards m, m + team, m + 2 team, …
/// The epoch barrier is a generation counter: the caller publishes the
/// horizon, bumps the generation, runs its own shards, then waits for an
/// atomic count of pending members to reach zero. Both sides spin for a
/// bounded number of iterations before parking on a condition variable,
/// so a short epoch hands over without a context switch, while on an
/// oversubscribed host a waiting thread soon gives up its core.
///
/// An exception thrown inside a shard (e.g. post()'s lookahead-violation
/// logic_error) is caught per shard; once every member has finished the
/// epoch, run_until() rethrows the lowest-numbered shard's exception,
/// whatever the thread interleaving. The team stays usable afterwards.
///
/// The only cross-shard dependency is a timestamped wired handoff
/// (gateway/backhaul packet injection), posted mid-epoch via post().
/// Handoffs obey a conservative lookahead contract: a handoff posted
/// during an epoch must be stamped at or after that epoch's horizon, so
/// delivering it at the barrier never rewinds a shard. With no lookahead
/// configured (the default, correct while no wired links exist) each
/// run_until() is a single epoch.
///
/// Determinism: shards never share state mid-epoch, and the barrier
/// drains the mailbox sorted by (timestamp, posting shard, per-shard
/// post sequence) before scheduling into the targets — the same total
/// order regardless of worker count or interleaving.
class ShardedEngine {
public:
    struct Options {
        int threads = 0;        ///< <= 0: hardware concurrency
        util::SimTime lookahead = 0;  ///< <= 0: run each run_until() as one epoch
    };

    ShardedEngine(std::vector<Scheduler*> shards, Options options);
    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;
    /// Joins the worker team.
    ~ShardedEngine();

    /// Advance every shard to `t` (epoch loop with barriers).
    void run_until(util::SimTime t);

    /// Dynamic conservative lookahead: called between epochs with
    /// (epoch start, run target), must return a horizon H such that no
    /// cross-shard handoff with a timestamp < H can be posted during the
    /// epoch (handoffs exactly at H are legal). The engine clamps the
    /// answer into (epoch start, target] — returning a stale instant is
    /// safe, it just degrades into minimal one-microsecond epochs. When
    /// installed it replaces the static Options::lookahead stepping; the
    /// Network's connected-cut support derives H from the boundary MACs'
    /// committed transmission times plus the SIFS decision-to-air bound.
    using HorizonProvider = std::function<util::SimTime(util::SimTime epoch_start,
                                                        util::SimTime target)>;
    void set_horizon_provider(HorizonProvider provider) { horizon_provider_ = std::move(provider); }

    /// Post a timestamped cross-shard handoff; delivered into the target
    /// shard's scheduler at the next epoch barrier. Callable from any
    /// shard worker mid-epoch. `at` must be >= the current epoch horizon
    /// (the conservative lookahead contract) — violations throw.
    void post(int from_shard, int to_shard, util::SimTime at, EventFn fn);

    int shard_count() const { return static_cast<int>(shards_.size()); }
    std::uint64_t epochs() const { return epochs_; }
    std::uint64_t handoffs() const { return handoffs_; }
    util::SimTime now() const { return clock_; }
    /// Worker threads running besides the caller (0 until the first
    /// multi-member epoch, and always 0 for a one-member team).
    int threads_started() const { return static_cast<int>(workers_.size()); }

private:
    struct Handoff {
        util::SimTime at;
        int from;
        std::uint64_t seq;  ///< per-posting-shard counter
        int to;
        EventFn fn;
    };

    /// Run every shard of the epoch to horizon_ on the team, then rethrow
    /// the lowest shard's exception, if any.
    void run_epoch();
    /// Run member `member`'s shards to horizon_, catching per shard.
    void run_slice(int member);
    void worker_loop(int member, std::uint64_t seen_generation);
    /// Release the workers into the next epoch (or, when stopping_, out),
    /// expecting `pending` of them to report back.
    void next_generation(int pending);
    void start_workers();
    void stop_workers();

    std::vector<Scheduler*> shards_;
    Options options_;
    HorizonProvider horizon_provider_;

    std::mutex mailbox_mutex_;
    std::vector<Handoff> mailbox_;
    std::vector<Handoff> drained_;  ///< barrier drain buffer, swapped with mailbox_
    std::vector<std::uint64_t> post_seq_;  ///< next seq per posting shard

    // Worker team and epoch barrier (see the class comment). The caller
    // writes horizon_ and stopping_ before bumping generation_, which
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
    util::SimTime horizon_ = 0;
    std::uint64_t epochs_ = 0;
    std::uint64_t handoffs_ = 0;

    /// Members 1 .. team_ - 1; declared after everything they use.
    std::vector<std::thread> workers_;
};

}  // namespace ezflow::sim

#include "sim/sharded_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ezflow::sim {

namespace {

/// Busy-wait polls before a barrier side parks on its condition variable.
/// Long enough to cover a typical epoch handover (a few microseconds)
/// without a context switch; short enough that a thread whose partner is
/// descheduled on an oversubscribed host gives its core up quickly.
constexpr int kSpinIterations = 2000;

void cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/// Spin, then park on `cv` until `ready()` holds. Whoever makes `ready()`
/// true does so holding `mutex`, then notifies `cv`.
template <class Ready>
void await(const Ready& ready, std::mutex& mutex, std::condition_variable& cv)
{
    for (int i = 0; i < kSpinIterations; ++i) {
        if (ready()) return;
        cpu_relax();
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, ready);
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<Scheduler*> shards, Options options)
    : shards_(std::move(shards)),
      options_(options),
      post_seq_(shards_.size(), 0),
      errors_(shards_.size())
{
    if (shards_.empty()) throw std::invalid_argument("ShardedEngine: no shards");
    for (Scheduler* shard : shards_)
        if (shard == nullptr) throw std::invalid_argument("ShardedEngine: null shard");
    const int threads = options_.threads > 0
                            ? options_.threads
                            : static_cast<int>(std::thread::hardware_concurrency());
    team_ = std::clamp(threads, 1, shard_count());
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

void ShardedEngine::run_until(util::SimTime t)
{
    // Every shard's clock sits at clock_ between epochs (run_until leaves
    // the scheduler clock at the horizon even when no event lands there).
    while (clock_ < t) {
        util::SimTime horizon;
        if (horizon_provider_) {
            // The provider's answer is conservative but may be stale or
            // beyond the target; clamping into (clock_, t] preserves both
            // progress and the posting contract (see set_horizon_provider).
            horizon = horizon_provider_(clock_, t);
            if (horizon <= clock_) horizon = clock_ + 1;
            if (horizon > t) horizon = t;
        } else {
            horizon =
                options_.lookahead > 0 ? std::min<util::SimTime>(t, clock_ + options_.lookahead) : t;
        }
        horizon_ = horizon;
        run_epoch();

        // Barrier: deliver the epoch's handoffs in one deterministic
        // total order — by timestamp, then posting shard, then the
        // poster's own sequence — so target-side event seqs are
        // independent of worker interleaving.
        {
            std::lock_guard<std::mutex> lock(mailbox_mutex_);
            drained_.swap(mailbox_);
        }
        std::sort(drained_.begin(), drained_.end(), [](const Handoff& a, const Handoff& b) {
            if (a.at != b.at) return a.at < b.at;
            if (a.from != b.from) return a.from < b.from;
            return a.seq < b.seq;
        });
        for (Handoff& handoff : drained_) {
            shards_[static_cast<std::size_t>(handoff.to)]->schedule_at(handoff.at,
                                                                       std::move(handoff.fn));
        }
        handoffs_ += drained_.size();
        drained_.clear();
        clock_ = horizon;
        ++epochs_;
    }
}

void ShardedEngine::run_epoch()
{
    if (team_ > 1) {
        if (workers_.empty()) start_workers();
        next_generation(team_ - 1);
    }
    run_slice(0);
    if (team_ > 1) await([this] { return pending_.load() == 0; }, park_mutex_, epoch_done_);

    std::exception_ptr lowest;
    for (std::exception_ptr& error : errors_) {
        if (!lowest) lowest = error;
        error = nullptr;
    }
    if (lowest) std::rethrow_exception(lowest);
}

void ShardedEngine::run_slice(int member)
{
    for (std::size_t s = static_cast<std::size_t>(member); s < shards_.size();
         s += static_cast<std::size_t>(team_)) {
        try {
            shards_[s]->run_until(horizon_);
        } catch (...) {
            errors_[s] = std::current_exception();
        }
    }
}

void ShardedEngine::worker_loop(int member, std::uint64_t seen_generation)
{
    for (;;) {
        await([&] { return generation_.load() != seen_generation; }, park_mutex_,
              epoch_started_);
        // The caller bumps the generation once per epoch and not again
        // until this member has reported in.
        ++seen_generation;
        if (stopping_) return;
        run_slice(member);
        bool last = false;
        {
            const std::lock_guard<std::mutex> lock(park_mutex_);
            last = --pending_ == 0;
        }
        if (last) epoch_done_.notify_one();
    }
}

void ShardedEngine::next_generation(int pending)
{
    {
        const std::lock_guard<std::mutex> lock(park_mutex_);
        pending_ = pending;
        ++generation_;
    }
    epoch_started_.notify_all();
}

void ShardedEngine::start_workers()
{
    workers_.reserve(static_cast<std::size_t>(team_ - 1));
    try {
        for (int member = 1; member < team_; ++member)
            workers_.emplace_back(&ShardedEngine::worker_loop, this, member, generation_.load());
    } catch (...) {
        stop_workers();
        throw;
    }
}

void ShardedEngine::stop_workers()
{
    if (workers_.empty()) return;
    stopping_ = true;
    next_generation(0);
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    stopping_ = false;
}

void ShardedEngine::post(int from_shard, int to_shard, util::SimTime at, EventFn fn)
{
    if (from_shard < 0 || from_shard >= shard_count() || to_shard < 0 ||
        to_shard >= shard_count())
        throw std::invalid_argument("ShardedEngine::post: bad shard id");
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    if (at < horizon_)
        throw std::logic_error(
            "ShardedEngine::post: handoff timestamp precedes the epoch horizon "
            "(conservative lookahead contract violated)");
    mailbox_.push_back(Handoff{at, from_shard, post_seq_[static_cast<std::size_t>(from_shard)]++,
                               to_shard, std::move(fn)});
}

}  // namespace ezflow::sim

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
    : shards_(std::move(shards)), errors_(shards_.size())
{
    if (shards_.empty()) throw std::invalid_argument("ShardedEngine: no shards");
    for (Scheduler* shard : shards_)
        if (shard == nullptr) throw std::invalid_argument("ShardedEngine: null shard");
    const int threads = options.threads > 0
                            ? options.threads
                            : static_cast<int>(std::thread::hardware_concurrency());
    team_ = std::clamp(threads, 1, shard_count());
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

void ShardedEngine::run_until(util::SimTime t)
{
    if (t <= clock_) return;
    target_ = t;
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
    // Every shard's clock now sits at t (Scheduler::run_until leaves it
    // there even when no event lands on t).
    clock_ = t;
    ++epochs_;
}

void ShardedEngine::run_slice(int member)
{
    for (std::size_t s = static_cast<std::size_t>(member); s < shards_.size();
         s += static_cast<std::size_t>(team_)) {
        try {
            shards_[s]->run_until(target_);
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

}  // namespace ezflow::sim

#include "sim/sharded_engine.h"

#include <stdexcept>
#include <utility>

#include "util/parallel.h"

namespace ezflow::sim {

ShardedEngine::ShardedEngine(std::vector<Scheduler*> shards, int threads)
    : shards_(std::move(shards)), threads_(threads)
{
    if (shards_.empty()) throw std::invalid_argument("ShardedEngine: no shards");
    for (Scheduler* shard : shards_)
        if (shard == nullptr) throw std::invalid_argument("ShardedEngine: null shard");
}

void ShardedEngine::run_until(util::SimTime t)
{
    if (t <= clock_) return;
    util::parallel_for(static_cast<int>(shards_.size()), threads_,
                       [&](int s) { shards_[static_cast<std::size_t>(s)]->run_until(t); });
    // Scheduler::run_until leaves every shard's clock at t, event or not.
    clock_ = t;
    ++epochs_;
}

}  // namespace ezflow::sim

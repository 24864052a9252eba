#pragma once

#include <functional>

namespace ezflow::util {

/// Run fn(0) .. fn(count - 1) on `threads` threads (the caller plus
/// threads - 1 std::threads) that take indices from a shared counter, and
/// return when all are done. Used by analysis::SweepRunner to fan
/// independent simulations across cores and by sim::ShardedEngine to run
/// its shards; invocations must not touch shared mutable state unless
/// they synchronize themselves.
///
/// `threads` <= 0 selects hardware concurrency; an effective thread count
/// of 1 (or count <= 1) runs on the caller's thread alone. Every index
/// runs even when some throw; once all are done, the exception of the
/// lowest index that threw is rethrown, whatever the interleaving.
void parallel_for(int count, int threads, const std::function<void(int)>& fn);

}  // namespace ezflow::util

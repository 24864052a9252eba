#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace ezflow::util {

void parallel_for(int count, int threads, const std::function<void(int)>& fn)
{
    if (count <= 0) return;
    const int hardware = static_cast<int>(std::thread::hardware_concurrency());
    const int n = std::clamp(threads > 0 ? threads : hardware, 1, count);

    std::atomic<int> next{0};
    // One slot per index, written only by the thread that ran it.
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
    const auto work = [&] {
        for (int i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[static_cast<std::size_t>(i)] = std::current_exception();
            }
        }
    };
    // The caller is the n-th worker. Should a thread fail to start, the
    // ones that did and the caller still drain every index, and every
    // started thread is joined before the state it uses goes away.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n - 1));
    try {
        for (int t = 1; t < n; ++t) workers.emplace_back(work);
    } catch (const std::system_error&) {
    }
    work();
    for (std::thread& worker : workers) worker.join();
    for (const std::exception_ptr& error : errors)
        if (error) std::rethrow_exception(error);
}

}  // namespace ezflow::util

#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ezflow::util {

void parallel_for(int count, int threads, const std::function<void(int)>& fn)
{
    if (count <= 0) return;
    const int hardware = static_cast<int>(std::thread::hardware_concurrency());
    const int n = std::clamp(threads > 0 ? threads : hardware, 1, count);
    if (n == 1) {
        for (int i = 0; i < count; ++i) fn(i);
        return;
    }

    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    const auto work = [&] {
        for (int i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
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
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ezflow::util

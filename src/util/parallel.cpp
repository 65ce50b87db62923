#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dstage {

void parallel_for(std::size_t jobs, int threads,
                  const std::function<void(std::size_t)>& body) {
  if (jobs == 0) return;
  std::size_t workers = threads > 0
                            ? static_cast<std::size_t>(threads)
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, jobs);

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(jobs);
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < jobs; i = next++) {
          try {
            body(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }  // jthread joins here
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dstage

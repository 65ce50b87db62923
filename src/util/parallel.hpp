// The one worker pool behind seed sweeps and oracle campaigns. Workers
// claim job indices from a shared counter; callers write job i's result to
// slot i, so the output never depends on the thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace dstage {

/// Run body(i) for every i in [0, jobs) on min(threads, jobs) workers
/// (threads <= 0 selects hardware concurrency). Returns once every job has
/// finished; if any job threw, rethrows the lowest-index job's exception.
void parallel_for(std::size_t jobs, int threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace dstage

// Fixed-size worker pool for the data-parallel stages of a resolution
// run: the similarity join's numeric sweep, tokenization and probing.
//
// The pool is deliberately minimal: no task queue, no futures. One
// caller at a time hands every worker the same callable via Run() and
// blocks until all workers return; work distribution happens above it
// through an atomic chunk cursor (see parallel/parallel_for.h), which
// gives work-stealing-lite load balancing with no per-item locking.
//
// Determinism contract: the pool itself never reorders results —
// callers write into per-chunk buffers and concatenate them in chunk
// order, so output is byte-identical to a serial run regardless of
// worker count or scheduling (see docs/performance.md).

#ifndef HERA_PARALLEL_THREAD_POOL_H_
#define HERA_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hera {

/// \brief Fixed set of worker threads executing one job at a time.
///
/// Workers are spawned once in the constructor and joined in the
/// destructor; Run() reuses them, so per-phase dispatch cost is two
/// condition-variable round trips, not thread creation. Run() is not
/// reentrant: it must be called from one controller thread at a time
/// (the engine's serial control loop), and the job must not call Run()
/// on the same pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; any Run() must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Executes job(worker) once on every worker (worker in [0, size()))
  /// and returns when all invocations have finished. The job must not
  /// throw.
  void Run(const std::function<void(size_t worker)>& job);

 private:
  void WorkerLoop(size_t worker);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(size_t)>* job_ = nullptr;  // Guarded by mu_.
  uint64_t epoch_ = 0;     // Bumped per Run(); wakes the workers.
  size_t remaining_ = 0;   // Workers still inside the current job.
  bool shutdown_ = false;
};

}  // namespace hera

#endif  // HERA_PARALLEL_THREAD_POOL_H_

// Fixed-size thread pool + parallel_for used by the corpus analyses (Fig 1,
// Fig 4), the multi-rank launch simulation (Fig 6), and the svc::SessionPool
// shard drains.
//
// Queueing model: one mutex-guarded FIFO shared by every worker, so a task
// queued behind a blocked one is picked up by the next free worker. One
// queue lock is enough because the traffic is coarse and bounded: a
// SessionPool keeps at most one drain task per shard queued or running,
// each draining whole batches; Session::load_many submits one task per
// worker; parallel_for submits at most four chunks per worker.
//
// Fault model: a task that throws does NOT terminate the process. The
// exception is captured as a std::exception_ptr and retrievable via
// take_errors(), so a long-lived service (svc::SessionPool) survives a bad
// request and the owner decides whether to rethrow, log, or drop it.
// parallel_for() rethrows the first exception its own chunks captured after
// the batch joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace depchaos::support {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; outstanding tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. A throwing task is captured (take_errors), not fatal.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Exceptions captured from tasks since the last take_errors(), in
  /// completion order. Emptied by the call.
  std::vector<std::exception_ptr> take_errors();
  bool has_errors() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_task_;  // queue_ non-empty, or stopping_
  std::condition_variable cv_idle_;  // unfinished_ reached 0
  std::deque<std::function<void()>> queue_;
  std::size_t unfinished_ = 0;  // queued + running
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;

  std::vector<std::thread> workers_;
};

/// Run fn(i) for i in [0, n) across the pool in contiguous chunks and wait.
/// fn must be safe to call concurrently for distinct indices. If any call
/// throws, the batch still runs to completion (other indices are not
/// skipped across chunks already queued) and the FIRST captured exception
/// is rethrown after the join.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_chunk = 256);

}  // namespace depchaos::support

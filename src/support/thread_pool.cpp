#include "depchaos/support/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace depchaos::support {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return unfinished_ == 0; });
}

std::vector<std::exception_ptr> ThreadPool::take_errors() {
  std::lock_guard lock(mutex_);
  return std::exchange(errors_, {});
}

bool ThreadPool::has_errors() const {
  std::lock_guard lock(mutex_);
  return !errors_.empty();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and every queued task ran
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // Capture instead of std::terminate: a long-lived service must
      // survive one bad request. The owner drains via take_errors().
      error = std::current_exception();
    }
    task = nullptr;  // drop captures before signalling idle
    lock.lock();
    if (error) errors_.push_back(std::move(error));
    if (--unfinished_ == 0) cv_idle_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_chunk) {
  if (n == 0) return;
  const std::size_t workers = pool.size();
  const std::size_t chunk =
      std::max(min_chunk, (n + workers * 4 - 1) / (workers * 4));
  // Capture the first chunk-level exception here (not in the pool's error
  // list — the pool may be shared with unrelated tasks) and rethrow after
  // the join so callers see fn's failure instead of a silent skip.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (std::size_t start = 0; start < n; start += chunk) {
    const std::size_t end = std::min(n, start + chunk);
    pool.submit([&fn, &error_mutex, &first_error, start, end] {
      try {
        for (std::size_t i = start; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace depchaos::support

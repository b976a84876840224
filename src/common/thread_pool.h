#ifndef LEDGERDB_COMMON_THREAD_POOL_H_
#define LEDGERDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ledgerdb {

/// Fixed-size worker pool over a bounded FIFO work queue.
///
/// Producers on any thread Submit() closures; Submit blocks while the queue
/// is at capacity, so a fast producer is backpressured instead of growing
/// the queue without bound. A pool with one worker executes tasks serially
/// in submission order. The sharded append pipeline runs its shared
/// prevalidation stage on one pool.
///
/// Destruction drains every queued task (nothing submitted is dropped) and
/// joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Blocks while the queue is full (backpressure).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable not_empty_;   // signals workers
  std::condition_variable not_full_;    // signals blocked producers
  std::deque<std::function<void()>> queue_;
  const size_t capacity_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_COMMON_THREAD_POOL_H_

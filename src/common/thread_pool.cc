#include "common/thread_pool.h"

#include <algorithm>

namespace ledgerdb {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : capacity_(std::max<size_t>(1, queue_capacity)) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return queue_.size() < capacity_ || stopping_; });
    // Accept even while stopping: the destructor drains the queue, so a
    // task submitted before the join still runs.
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();
  }
}

}  // namespace ledgerdb

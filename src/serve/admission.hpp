// AdmissionQueue — bounded MPMC job queue with explicit load shedding
// (DESIGN.md §12). The serving layer's backpressure primitive:
//
//   * tryPush (socket / bench clients): a full queue REJECTS the job —
//     the caller answers "overloaded" immediately. Memory stays bounded
//     and no client ever hangs on an invisible queue.
//   * push (batch mode): blocks until space frees — flow control instead
//     of shedding, so batch output is a deterministic function of the
//     input file (the CI byte-match drill depends on this).
//
// close() drains gracefully: queued jobs are still handed out, new pushes
// are refused, and pop() returns false once the queue is empty — exactly
// the "finish in-flight queries" half of a graceful shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

namespace owlcl {

template <class T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Admission-controlled enqueue: false = shed (queue full or closed).
  /// The item is moved from only when admitted, so a shed caller can
  /// still answer through it.
  bool tryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || q_.size() >= capacity_) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      q_.push_back(std::move(item));
      accepted_.fetch_add(1, std::memory_order_relaxed);
    }
    popCv_.notify_one();
    return true;
  }

  /// Blocking enqueue (batch flow control). False only if closed.
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      pushCv_.wait(lock, [this] { return closed_ || q_.size() < capacity_; });
      if (closed_) return false;
      q_.push_back(std::move(item));
      accepted_.fetch_add(1, std::memory_order_relaxed);
    }
    popCv_.notify_one();
    return true;
  }

  /// Blocks for the next job; false once closed AND drained.
  bool pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    popCv_.wait(lock, [this] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;  // closed and drained
    *out = std::move(q_.front());
    q_.pop_front();
    lock.unlock();
    pushCv_.notify_one();
    return true;
  }

  /// Stops admission; queued jobs still drain through pop().
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    popCv_.notify_all();
    pushCv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable popCv_;   // waiters: consumers
  std::condition_variable pushCv_;  // waiters: blocked producers
  std::deque<T> q_;
  bool closed_ = false;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace owlcl

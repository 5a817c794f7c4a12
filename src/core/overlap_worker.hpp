#ifndef SOPS_CORE_OVERLAP_WORKER_HPP
#define SOPS_CORE_OVERLAP_WORKER_HPP

/// \file overlap_worker.hpp
/// One persistent helper thread that runs one submitted job at a time.
///
/// The stripe epoch executor (core/stripe_epoch_executor.hpp), behind both
/// sharded runners, uses it to overlap the serial (time, particle)-sorted
/// halo sweep with the next epoch's batched clock draws: the sweep is the
/// Amdahl serial fraction, and the draws depend only on the clock streams
/// (never on particle positions), so they can proceed concurrently without
/// touching shared state.  A persistent thread — rather than a spawn per
/// epoch — keeps the per-epoch cost at one mutex/condvar handshake.

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "util/assert.hpp"

namespace sops::core {

class OverlapWorker {
 public:
  OverlapWorker() : thread_(&OverlapWorker::loop, this) {}
  OverlapWorker(const OverlapWorker&) = delete;
  OverlapWorker& operator=(const OverlapWorker&) = delete;

  ~OverlapWorker() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Hands `job` to the helper thread.  At most one job may be in flight:
  /// wait() must be called before the next submit.
  void submit(std::function<void()> job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      SOPS_REQUIRE(!job_ && !running_, "OverlapWorker: job already in flight");
      job_ = std::move(job);
    }
    cv_.notify_all();
  }

  /// Blocks until the in-flight job (if any) finishes; rethrows any
  /// exception the job raised.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !job_ && !running_; });
    if (error_) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || static_cast<bool>(job_); });
      if (stop_) return;
      std::function<void()> job = std::move(job_);
      job_ = nullptr;
      running_ = true;
      lock.unlock();
      std::exception_ptr error;
      try {
        job();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      running_ = false;
      if (error) error_ = error;
      cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::function<void()> job_;
  bool running_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last member: starts after the state above exists
};

}  // namespace sops::core

#endif  // SOPS_CORE_OVERLAP_WORKER_HPP

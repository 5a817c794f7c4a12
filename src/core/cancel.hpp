#ifndef SOPS_CORE_CANCEL_HPP
#define SOPS_CORE_CANCEL_HPP

/// \file cancel.hpp
/// Cooperative cancellation for long runs.
///
/// A CancelToken is a shared atomic flag plus an optional wall-clock
/// deadline.  Producers (signal handlers, deadline timers, controlling
/// threads) call requestCancel(); consumers (the facade's replica loop,
/// the stripe epoch executor's loop, the sequential engine's runAtLeast) poll
/// cancelled() at safe points and return early with whatever progress
/// they made.  Cancellation is a *resumable abort*: the run's state stays
/// consistent, and with a snapshot-file configured the facade writes a
/// final snapshot at the cancellation point, so a cancelled run continues
/// where it stopped.  Contrast with sim::StopWhen, which is a data-driven
/// *successful* early stop (see sim/runner.hpp).
///
/// requestCancel() is async-signal-safe (a relaxed atomic store), so a
/// SIGINT/SIGTERM handler may call it on a token with static storage
/// duration.  cancelled() latches: once the deadline has passed or the
/// flag is set, every subsequent call returns true.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace sops::core {

class CancelToken {
 public:
  CancelToken() noexcept = default;

  /// Trips the token.  Safe to call from a signal handler or any thread.
  void requestCancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Arms a wall-clock deadline `ms` milliseconds from now.  cancelled()
  /// starts returning true once the deadline passes (and latches).
  void setDeadlineMs(std::int64_t ms) noexcept {
    deadlineNs_.store(nowNs() + ms * 1'000'000, std::memory_order_relaxed);
  }

  /// True once requestCancel() ran or the armed deadline passed.
  [[nodiscard]] bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline = deadlineNs_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadline && nowNs() >= deadline) {
      cancelled_.store(true, std::memory_order_relaxed);  // latch
      return true;
    }
    return false;
  }

 private:
  static constexpr std::int64_t kNoDeadline = INT64_MIN;

  [[nodiscard]] static std::int64_t nowNs() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadlineNs_{kNoDeadline};
};

/// Null-safe poll: runners hold `const CancelToken*` that defaults to
/// nullptr (no cancellation installed).
[[nodiscard]] inline bool isCancelled(const CancelToken* token) noexcept {
  return token != nullptr && token->cancelled();
}

}  // namespace sops::core

#endif  // SOPS_CORE_CANCEL_HPP

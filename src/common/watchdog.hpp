// Cooperative cancellation + monotonic watchdog deadlines.
//
// Long-running drivers must degrade to a partial-but-valid result instead of
// hanging CI or dying without flushing their journal. Two mechanisms compose:
//
//  * **CancellationToken** — a lock-free flag that signal handlers (SIGINT/
//    SIGTERM) and the watchdog set, and that workers poll at fault-batch
//    granularity. Setting it is async-signal-safe (a relaxed atomic store of
//    a flag plus a pointer to a static-lifetime reason string).
//  * **Watchdog** — one monotonic-clock (steady_clock) deadline for the
//    whole run. There is no background thread; workers call poll() at the
//    same batch granularity, which compares now() against the deadline and
//    trips the token (once) when exceeded. Trips count the watchdog_cancels
//    metric.
//
// RunControl bundles an optional token + watchdog into the single parameter
// drivers thread through DiagnosisPipeline / SocExperimentDriver. A default
// RunControl{} is fully inert: shouldStop() is two null checks, so
// un-instrumented runs stay bit-identical and free.
//
// Cancellation unwinds as OperationCancelled, thrown from the checkpoint
// (never mid-fault), so every journaled record is a completed fault and the
// journal is valid at the instant of interruption.
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace scandiag {

/// Thrown (by drivers, via RunControl::throwIfStopped) when a token trips.
/// Carries the trip reason ("signal", "watchdog: total budget exceeded", ...).
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(const std::string& reason)
      : std::runtime_error("operation cancelled: " + reason) {}
};

class CancellationToken {
 public:
  /// Requests cancellation. `reason` must have static storage duration (the
  /// token stores the pointer, not a copy) — this is what makes the call
  /// async-signal-safe. First caller wins; later reasons are dropped.
  void cancel(const char* reason) noexcept {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_acquire); }

  /// The first cancel() reason, or "" when not cancelled.
  const char* reason() const noexcept {
    const char* r = reason_.load(std::memory_order_relaxed);
    return r ? r : "";
  }

  /// Re-arms a token for reuse across sweeps in one process (tests, benches).
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_relaxed);
    reason_.store(nullptr, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<const char*> reason_{nullptr};
};

class Watchdog {
 public:
  using Clock = std::chrono::steady_clock;

  /// `totalBudget` bounds the whole run from construction. Zero or negative
  /// budgets trip on the first poll (useful for deterministic trip tests).
  Watchdog(CancellationToken& token, std::chrono::milliseconds totalBudget);

  /// Checks the deadline and trips the token when it is exceeded. Cheap
  /// enough for fault-batch granularity (one clock read + one atomic load).
  /// Returns true when the token is (now) cancelled. Thread-safe; the trip
  /// itself happens exactly once and increments watchdog_cancels.
  bool poll();

  bool tripped() const noexcept { return tripped_.load(std::memory_order_relaxed); }

 private:
  CancellationToken* token_;
  Clock::time_point totalDeadline_;
  std::atomic<bool> tripped_{false};
};

/// The cancellation context drivers thread through their hot loops. Default
/// construction is inert (both null) — the disabled path costs two compares.
struct RunControl {
  CancellationToken* token = nullptr;
  Watchdog* watchdog = nullptr;

  bool shouldStop() const {
    if (watchdog && watchdog->poll()) return true;
    return token && token->cancelled();
  }

  /// Poll + unwind: throws OperationCancelled at a safe checkpoint.
  void throwIfStopped() const {
    if (shouldStop()) {
      throw OperationCancelled(token && token->cancelled() && *token->reason()
                                   ? token->reason()
                                   : "cancellation requested");
    }
  }
};

/// Process-wide token signal handlers flip. Drivers that opt into graceful
/// shutdown point their RunControl at this.
CancellationToken& globalCancelToken();

/// Installs SIGINT/SIGTERM handlers: the first signal cancels
/// globalCancelToken() (cooperative drain → flush → exit 6 in the caller);
/// a second signal hard-exits with code 6 immediately, so a wedged drain can
/// always be interrupted. Idempotent.
void installCancellationSignalHandlers();

}  // namespace scandiag

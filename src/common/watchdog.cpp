#include "common/watchdog.hpp"

#include <csignal>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace scandiag {

Watchdog::Watchdog(CancellationToken& token, std::chrono::milliseconds totalBudget)
    : token_(&token), totalDeadline_(Clock::now() + totalBudget) {}

bool Watchdog::poll() {
  if (token_->cancelled()) return true;
  if (Clock::now() < totalDeadline_) return false;
  // Count the trip exactly once even when many workers poll past the
  // deadline concurrently.
  bool expected = false;
  if (tripped_.compare_exchange_strong(expected, true, std::memory_order_relaxed)) {
    obs::count(obs::Counter::WatchdogCancels);
  }
  token_->cancel("watchdog: total budget exceeded");
  return true;
}

CancellationToken& globalCancelToken() {
  static CancellationToken token;
  return token;
}

namespace {

// A plain handler function, not a lambda with captures: everything it touches
// must be async-signal-safe (atomic stores, write(2), _exit(2)).
std::atomic<int> gSignalCount{0};

void cancellationHandler(int) {
  const int prior = gSignalCount.fetch_add(1, std::memory_order_relaxed);
  if (prior == 0) {
    globalCancelToken().cancel("signal");
    static const char msg[] =
        "\n[scandiag] interrupt: draining and flushing checkpoint "
        "(interrupt again to abort)\n";
    [[maybe_unused]] ssize_t n = ::write(STDERR_FILENO, msg, sizeof msg - 1);
  } else {
    ::_exit(6);  // kExitInterrupted: second signal aborts a wedged drain
  }
}

}  // namespace

void installCancellationSignalHandlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa {};
  sa.sa_handler = cancellationHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: let blocking syscalls return EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace scandiag

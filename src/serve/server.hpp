// DiagnosisServer: the hardened request lifecycle around DiagnosisService.
//
// Request state machine (docs/ARCHITECTURE.md §12):
//
//       accept ──▸ [admission]  queue full ──▸ SHED (BUSY reply, close)
//                      │
//                      ▼
//                  [queued] ──▸ handler reads frames
//                      │
//                      ▼
//                  [running]  deadline trip ─▸ DEGRADED (DEADLINE reply)
//                      │       drain/IO fail ─▸ ABORTED  (close)
//                      ▼
//                    OK
//
// Robustness invariants, each driven on purpose by the chaos suite:
//  * Bounded memory: at most queueCapacity connections wait + handlers run;
//    connection #capacity+1 gets an immediate BUSY reply and a close —
//    never an unbounded queue.
//  * Bounded time: every read/write carries the I/O timeout (slowloris gets
//    one handler for at most that long), every request optionally carries
//    the request deadline (degrading, not killing, the answer).
//  * Crash-exact accounting: ACCEPTED is journaled (fsync'd) before a
//    request runs, its terminal state after; replayLedger() after a SIGKILL
//    balances accepted == ok + shed + degraded + aborted exactly.
//  * Two-stage drain: the first SIGINT/SIGTERM (or stop()) closes the
//    listener, severs idle connections, lets in-flight requests finish
//    inside the drain budget, flushes the metrics snapshot atomically, and
//    returns exit code 6. Requests still running past the budget are
//    cancelled and booked ABORTED. A second signal hard-exits 6 immediately
//    (the watchdog layer's handler).
//
// Compute runs on the existing global ThreadPool (handlers submit and wait),
// so `--threads` bounds diagnosis parallelism exactly as it does for sweeps;
// handler threads only do framing I/O and bookkeeping.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/watchdog.hpp"
#include "serve/accounting.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace scandiag::serve {

/// The server cannot start or continue (bind/listen failure, unusable
/// journal). The CLI maps this to exit code 7.
class ServerFatalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServeOptions {
  std::string socketPath;
  /// Connections allowed to wait for a handler; one more is shed BUSY.
  std::size_t queueCapacity = 16;
  /// Handler threads (framing I/O + bookkeeping; compute goes to the pool).
  std::size_t handlers = 2;
  /// Per-request deadline in ms; 0 = none. Exceeding it degrades the reply.
  std::size_t requestDeadlineMs = 0;
  /// Whole-frame read/write deadline per I/O op (slowloris/idle bound).
  std::size_t ioTimeoutMs = 5000;
  /// Stage-one drain: in-flight requests get this long to finish.
  std::size_t drainBudgetMs = 5000;
  std::string journalPath;  // request-accounting ledger ("" = off)
  std::string metricsPath;  // metrics snapshot at drain ("" = off)
  std::string metricsCircuit;  // context string for the snapshot
  /// Token whose cancellation starts the drain. Null = a private token only
  /// stop() reaches; the CLI passes &globalCancelToken() so signals drain.
  CancellationToken* stopToken = nullptr;
};

/// Live (in-memory) request totals; mirrors what the ledger journal replays
/// to, minus anything from prior incarnations.
struct ServeStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> framesRejected{0};

  StatsReply snapshot() const {
    StatsReply reply;
    reply.accepted = accepted.load(std::memory_order_relaxed);
    reply.ok = ok.load(std::memory_order_relaxed);
    reply.shed = shed.load(std::memory_order_relaxed);
    reply.degraded = degraded.load(std::memory_order_relaxed);
    reply.aborted = aborted.load(std::memory_order_relaxed);
    reply.framesRejected = framesRejected.load(std::memory_order_relaxed);
    return reply;
  }
};

class DiagnosisServer {
 public:
  DiagnosisServer(const DiagnosisService& service, ServeOptions options);
  ~DiagnosisServer();

  DiagnosisServer(const DiagnosisServer&) = delete;
  DiagnosisServer& operator=(const DiagnosisServer&) = delete;

  /// Binds, listens, serves until the stop token trips, then drains.
  /// Returns the process exit code (6 = drained after stop/signal).
  /// Throws ServerFatalError when the socket or journal cannot be set up.
  int run();

  /// Starts the drain from any thread (tests; the CLI uses signals).
  void stop();

  /// Blocks until run() is accepting connections (or `timeoutMs` passed).
  /// False on timeout or when run() already exited.
  bool waitUntilListening(std::size_t timeoutMs);

  const ServeStats& stats() const { return stats_; }

 private:
  /// One accepted connection; busy is true while a request is mid-service
  /// (drain severs only idle connections, so replies in flight still land).
  struct Connection {
    int fd = -1;
    std::atomic<bool> busy{false};
  };

  void handlerLoop();
  void serveConnection(Connection& conn);
  /// Returns false when the connection must close (protocol garbage, abort).
  bool dispatchFrame(Connection& conn, const Frame& frame);
  void shedConnection(int fd);
  // Each serve event is booked at exactly one of these sites, which update
  // ServeStats, the obs counters and the ledger together.
  /// Assigns the next request id and books ACCEPTED.
  std::uint64_t bookAccepted();
  void bookTerminal(std::uint64_t requestId, RequestOutcome outcome);
  void bookRejectedFrame();

  const DiagnosisService* service_;
  ServeOptions options_;
  std::unique_ptr<RequestAccounting> accounting_;
  ServeStats stats_;
  std::atomic<std::uint64_t> requestIds_{1};

  CancellationToken privateStop_;
  CancellationToken* stopToken_ = nullptr;
  /// Stage-two token: trips when the drain budget runs out; per-request
  /// RunControls watch it, so overrunning requests unwind as ABORTED.
  CancellationToken abortToken_;
  std::atomic<bool> draining_{false};

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<int> pendingFds_;

  std::mutex connMutex_;
  std::vector<std::shared_ptr<Connection>> activeConns_;

  std::mutex listenMutex_;
  std::condition_variable listenCv_;
  bool listening_ = false;
  bool finished_ = false;
};

}  // namespace scandiag::serve

#include "serve/server.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace scandiag::serve {

namespace {

constexpr int kExitInterrupted = 6;

/// Milliseconds the accept loop sleeps in poll() between stop-token checks.
constexpr int kAcceptPollMs = 100;

/// Budget for best-effort replies the server refuses to block on (BUSY at
/// admission, the error reply after protocol garbage).
constexpr std::chrono::milliseconds kBestEffortWriteMs{1000};

int listenOn(const std::string& path) {
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw ServerFatalError("socket path '" + path + "' is empty or longer than " +
                           std::to_string(sizeof addr.sun_path - 1) + " bytes");
  }
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw ServerFatalError(std::string("socket: ") + strerror(errno));
  ::unlink(path.c_str());  // a stale socket from a killed server is expected
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ServerFatalError("bind " + path + ": " + strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw ServerFatalError("listen " + path + ": " + strerror(err));
  }
  return fd;
}

}  // namespace

DiagnosisServer::DiagnosisServer(const DiagnosisService& service, ServeOptions options)
    : service_(&service), options_(std::move(options)) {
  stopToken_ = options_.stopToken != nullptr ? options_.stopToken : &privateStop_;
  if (options_.handlers == 0) options_.handlers = 1;
  if (options_.queueCapacity == 0) options_.queueCapacity = 1;
}

DiagnosisServer::~DiagnosisServer() = default;

void DiagnosisServer::stop() { stopToken_->cancel("stop requested"); }

bool DiagnosisServer::waitUntilListening(std::size_t timeoutMs) {
  std::unique_lock<std::mutex> lock(listenMutex_);
  listenCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                     [&] { return listening_ || finished_; });
  return listening_ && !finished_;
}

int DiagnosisServer::run() {
  if (!options_.journalPath.empty()) {
    try {
      accounting_ = std::make_unique<RequestAccounting>(options_.journalPath);
    } catch (const JournalError& e) {
      throw ServerFatalError(std::string("request ledger: ") + e.what());
    }
    // Never reuse an id a previous incarnation journaled.
    requestIds_.store(accounting_->nextRequestId(), std::memory_order_relaxed);
  }
  const int listenFd = listenOn(options_.socketPath);
  {
    std::lock_guard<std::mutex> lock(listenMutex_);
    listening_ = true;
  }
  listenCv_.notify_all();

  std::vector<std::thread> handlers;
  handlers.reserve(options_.handlers);
  for (std::size_t i = 0; i < options_.handlers; ++i) {
    handlers.emplace_back([this] { handlerLoop(); });
  }

  // ---- Accept loop: admission control happens here, before any parsing.
  while (!stopToken_->cancelled()) {
    struct pollfd pfd{listenFd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kAcceptPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the stop token
      break;
    }
    if (rc == 0) continue;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      if (pendingFds_.size() < options_.queueCapacity) {
        pendingFds_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queueCv_.notify_one();
    } else {
      shedConnection(fd);
    }
  }

  // ---- Stage-one drain: stop accepting, sever idle connections, let
  // in-flight requests finish inside the drain budget.
  ::close(listenFd);
  draining_.store(true, std::memory_order_release);
  queueCv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    for (const auto& conn : activeConns_) {
      // Idle connections are parked in readFrame() waiting for a request
      // that will never be served; shutdown() turns that wait into an
      // immediate EOF. Busy connections keep their socket so the reply of
      // the request they are running still lands.
      if (!conn->busy.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }

  // ---- Stage-two: requests overrunning the budget are cancelled (their
  // handlers book ABORTED) and every remaining socket is severed.
  const auto budgetEnd =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(options_.drainBudgetMs);
  std::atomic<bool> handlersDone{false};
  std::thread joiner([&] {
    for (std::thread& h : handlers) h.join();
    handlersDone.store(true, std::memory_order_release);
  });
  while (!handlersDone.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < budgetEnd) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!handlersDone.load(std::memory_order_acquire)) {
    abortToken_.cancel("drain budget exceeded");
    std::lock_guard<std::mutex> lock(connMutex_);
    for (const auto& conn : activeConns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  joiner.join();

  // Connections that were queued but never picked up: close without reply
  // (no request was read, so nothing enters the ledger — the client sees
  // EOF and retries).
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    for (int fd : pendingFds_) ::close(fd);
    pendingFds_.clear();
  }
  ::unlink(options_.socketPath.c_str());

  // Metrics snapshot last, through atomicWriteFile (obs::writeMetricsFile):
  // a second signal hard-exiting mid-flush can leave a stale temp file but
  // never a torn snapshot.
  if (!options_.metricsPath.empty()) {
    obs::MetricsContext context;
    context.circuit = options_.metricsCircuit;
    context.threads = globalPool().threadCount();
    try {
      obs::writeMetricsFile(options_.metricsPath, context);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: metrics flush failed: %s\n", e.what());
    }
  }
  {
    std::lock_guard<std::mutex> lock(listenMutex_);
    listening_ = false;
    finished_ = true;
  }
  listenCv_.notify_all();
  return kExitInterrupted;
}

void DiagnosisServer::shedConnection(int fd) {
  const std::uint64_t id = bookAccepted();
  bookTerminal(id, RequestOutcome::Shed);
  DiagnoseReply busy;
  busy.status = ReplyStatus::Busy;
  busy.requestId = id;
  busy.resolved = false;
  busy.confidence = 0.0;
  busy.message = "server busy: admission queue full";
  try {
    writeFrame(fd, kDiagnoseReplyFrame, encodeDiagnoseReply(busy), kBestEffortWriteMs);
  } catch (const FrameError&) {
    // Best effort: the client's retry path handles a bare EOF the same way.
  }
  ::close(fd);
}

void DiagnosisServer::handlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [&] {
        return draining_.load(std::memory_order_acquire) || !pendingFds_.empty();
      });
      if (draining_.load(std::memory_order_acquire)) return;
      fd = pendingFds_.front();
      pendingFds_.pop_front();
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(connMutex_);
      activeConns_.push_back(conn);
    }
    serveConnection(*conn);
    {
      std::lock_guard<std::mutex> lock(connMutex_);
      for (auto it = activeConns_.begin(); it != activeConns_.end(); ++it) {
        if (it->get() == conn.get()) {
          activeConns_.erase(it);
          break;
        }
      }
    }
    ::close(fd);
  }
}

void DiagnosisServer::serveConnection(Connection& conn) {
  const std::chrono::milliseconds ioTimeout(options_.ioTimeoutMs);
  // Connections are persistent: frames until the peer closes, an I/O bound
  // trips, the protocol is violated, or the server drains.
  for (;;) {
    if (draining_.load(std::memory_order_acquire)) return;
    Frame frame;
    try {
      frame = readFrame(conn.fd, ioTimeout);
    } catch (const PeerClosedError&) {
      return;
    } catch (const FrameTimeoutError&) {
      // Slowloris or idle: the peer had the whole I/O budget for one frame.
      return;
    } catch (const FrameFormatError&) {
      bookRejectedFrame();
      return;  // a byte stream that lied about itself cannot be re-synced
    } catch (const FrameCorruptError&) {
      bookRejectedFrame();
      return;
    } catch (const FrameIoError&) {
      return;
    }
    conn.busy.store(true, std::memory_order_release);
    bool keep = false;
    try {
      keep = dispatchFrame(conn, frame);
    } catch (const std::exception& e) {
      // dispatchFrame handles every expected failure itself; anything that
      // still escapes must not take the handler thread (and with it the
      // whole server) down — close this connection and keep serving.
      std::fprintf(stderr, "serve: handler error: %s\n", e.what());
    }
    conn.busy.store(false, std::memory_order_release);
    if (!keep) return;
  }
}

bool DiagnosisServer::dispatchFrame(Connection& conn, const Frame& frame) {
  const std::chrono::milliseconds ioTimeout(options_.ioTimeoutMs);
  switch (frame.type) {
    case kPingRequestFrame:
      try {
        writeFrame(conn.fd, kPingReplyFrame, frame.payload, ioTimeout);
        return true;
      } catch (const FrameError&) {
        return false;
      }
    case kStatsRequestFrame:
      try {
        writeFrame(conn.fd, kStatsReplyFrame, encodeStatsReply(stats_.snapshot()), ioTimeout);
        return true;
      } catch (const FrameError&) {
        return false;
      }
    case kDiagnoseRequestFrame:
      break;  // handled below
    default:
      bookRejectedFrame();
      return false;
  }

  DiagnoseRequest request;
  try {
    request = decodeDiagnoseRequest(frame.payload);
  } catch (const FrameFormatError&) {
    // The frame's CRC was fine but its content lies about itself — same
    // rejection class as a bad frame.
    bookRejectedFrame();
    return false;
  }

  const std::uint64_t id = bookAccepted();

  DiagnoseReply reply;
  try {
    // Compute on the existing pool so --threads bounds diagnosis
    // parallelism; this handler thread just waits for the future. At one
    // pool thread submit() runs inline right here — the serial code path.
    auto future = globalPool().submit([&] {
      return service_->handle(request, id, std::chrono::milliseconds(options_.requestDeadlineMs),
                              &abortToken_);
    });
    reply = future.get();
  } catch (const OperationCancelled&) {
    // Drain overran the budget mid-request: no reply, close, book exactly
    // what happened.
    bookTerminal(id, RequestOutcome::Aborted);
    return false;
  } catch (const std::exception& e) {
    reply.status = ReplyStatus::Error;
    reply.requestId = id;
    reply.resolved = false;
    reply.confidence = 0.0;
    reply.message = e.what();
  }

  try {
    writeFrame(conn.fd, kDiagnoseReplyFrame, encodeDiagnoseReply(reply), ioTimeout);
  } catch (const FrameError&) {
    // The answer existed but the client never durably received it.
    bookTerminal(id, RequestOutcome::Aborted);
    return false;
  }

  switch (reply.status) {
    case ReplyStatus::Ok:
      bookTerminal(id, RequestOutcome::Ok);
      return true;
    case ReplyStatus::Deadline:
      bookTerminal(id, RequestOutcome::Degraded);
      return true;
    case ReplyStatus::Error:
      bookTerminal(id, RequestOutcome::Aborted);
      return true;  // request-level error; the connection itself is healthy
    case ReplyStatus::Busy:
      bookTerminal(id, RequestOutcome::Shed);  // unreachable from handle()
      return true;
  }
  return false;
}

std::uint64_t DiagnosisServer::bookAccepted() {
  const std::uint64_t id = requestIds_.fetch_add(1, std::memory_order_relaxed);
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  if (accounting_) accounting_->accepted(id);
  return id;
}

void DiagnosisServer::bookTerminal(std::uint64_t requestId, RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::Ok:
      stats_.ok.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeRequestsOk);
      break;
    case RequestOutcome::Shed:
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeRequestsShed);
      break;
    case RequestOutcome::Degraded:
      stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDeadlineDegraded);
      break;
    case RequestOutcome::Aborted:
      stats_.aborted.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (accounting_) accounting_->terminal(requestId, outcome);
}

void DiagnosisServer::bookRejectedFrame() {
  stats_.framesRejected.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::ServeFramesRejected);
}

}  // namespace scandiag::serve

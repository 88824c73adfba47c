#include "serve/client.hpp"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/rng.hpp"

namespace scandiag::serve {

namespace {

/// RAII connect; fd() < 0 means the connect failed (errno preserved in why).
class ClientSocket {
 public:
  explicit ClientSocket(const std::string& path) {
    struct sockaddr_un addr;
    memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
      why_ = "socket path '" + path + "' is empty or too long";
      return;
    }
    memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      why_ = std::string("socket: ") + strerror(errno);
      return;
    }
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
      why_ = std::string("connect ") + path + ": " + strerror(errno);
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  int fd() const { return fd_; }
  const std::string& why() const { return why_; }

 private:
  int fd_ = -1;
  std::string why_;
};

constexpr std::uint64_t kBackoffBaseMs = 20;
constexpr std::uint64_t kBackoffCapMs = 2000;

/// Capped exponential backoff with jitter: uniform over [delay/2, delay]
/// where delay = min(base * 2^(attempt-1), cap). The half-floor keeps the
/// average wait meaningful; the jitter decorrelates a fleet of clients.
void backoff(std::size_t attempt, Xoroshiro128& rng) {
  std::uint64_t delay = kBackoffBaseMs;
  for (std::size_t i = 1; i < attempt && delay < kBackoffCapMs; ++i) delay *= 2;
  if (delay > kBackoffCapMs) delay = kBackoffCapMs;
  const std::uint64_t jittered = delay / 2 + rng.nextBelow(delay - delay / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

}  // namespace

DiagnoseReply requestDiagnosis(const ClientOptions& options, const DiagnoseRequest& request) {
  const std::chrono::milliseconds ioTimeout(options.ioTimeoutMs);
  const std::string payload = encodeDiagnoseRequest(request);
  Xoroshiro128 rng(options.jitterSeed);
  const std::size_t attempts = options.maxAttempts == 0 ? 1 : options.maxAttempts;
  std::string lastFailure = "no attempts made";
  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) backoff(attempt - 1, rng);
    ClientSocket sock(options.socketPath);
    if (sock.fd() < 0) {
      lastFailure = sock.why();  // server down or restarting: retryable
      continue;
    }
    try {
      writeFrame(sock.fd(), kDiagnoseRequestFrame, payload, ioTimeout);
      const Frame frame = readFrame(sock.fd(), ioTimeout);
      if (frame.type != kDiagnoseReplyFrame) {
        throw ClientError("server sent frame type " + std::to_string(frame.type) +
                          " where a diagnose reply was expected");
      }
      const DiagnoseReply reply = decodeDiagnoseReply(frame.payload);
      if (reply.status == ReplyStatus::Busy) {
        lastFailure = "server busy (request " + std::to_string(reply.requestId) + " shed)";
        continue;  // the whole point of the backoff
      }
      return reply;
    } catch (const PeerClosedError& e) {
      lastFailure = e.what();  // server draining mid-request: retryable
      continue;
    } catch (const FrameTimeoutError& e) {
      lastFailure = e.what();
      continue;
    } catch (const FrameIoError& e) {
      lastFailure = e.what();
      continue;
    }
    // FrameFormatError / FrameCorruptError escape: a server speaking garbage
    // will not improve with retries.
  }
  throw ClientError("diagnosis request failed after " + std::to_string(attempts) +
                    " attempt(s): " + lastFailure);
}

void ping(const ClientOptions& options) {
  ClientSocket sock(options.socketPath);
  if (sock.fd() < 0) throw ClientError(sock.why());
  const std::chrono::milliseconds ioTimeout(options.ioTimeoutMs);
  writeFrame(sock.fd(), kPingRequestFrame, "", ioTimeout);
  const Frame frame = readFrame(sock.fd(), ioTimeout);
  if (frame.type != kPingReplyFrame) {
    throw ClientError("server sent frame type " + std::to_string(frame.type) +
                      " where a ping reply was expected");
  }
}

StatsReply fetchStats(const ClientOptions& options) {
  const std::chrono::milliseconds ioTimeout(options.ioTimeoutMs);
  Xoroshiro128 rng(options.jitterSeed);
  const std::size_t attempts = options.maxAttempts == 0 ? 1 : options.maxAttempts;
  std::string lastFailure = "no attempts made";
  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) backoff(attempt - 1, rng);
    ClientSocket sock(options.socketPath);
    if (sock.fd() < 0) {
      lastFailure = sock.why();
      continue;
    }
    try {
      writeFrame(sock.fd(), kStatsRequestFrame, "", ioTimeout);
      const Frame frame = readFrame(sock.fd(), ioTimeout);
      if (frame.type == kDiagnoseReplyFrame &&
          decodeDiagnoseReply(frame.payload).status == ReplyStatus::Busy) {
        lastFailure = "server busy (connection shed)";  // shed at admission
        continue;
      }
      if (frame.type != kStatsReplyFrame) {
        throw ClientError("server sent frame type " + std::to_string(frame.type) +
                          " where a stats reply was expected");
      }
      return decodeStatsReply(frame.payload);
    } catch (const PeerClosedError& e) {
      lastFailure = e.what();
      continue;
    } catch (const FrameIoError& e) {
      lastFailure = e.what();
      continue;
    }
  }
  throw ClientError("stats request failed after " + std::to_string(attempts) +
                    " attempt(s): " + lastFailure);
}

}  // namespace scandiag::serve

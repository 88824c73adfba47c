// Chaos harness for `scandiag serve` (runs in the ASan/UBSan and TSan CI
// matrices): a live server fed protocol garbage, slowloris half-frames,
// saturation, and drains must keep every robustness invariant from
// docs/ARCHITECTURE.md §12 — typed rejections (never a crash), bounded time
// on slow clients, BUSY at the admission edge, exit code 6 with a balanced
// ledger on drain. Plus a 100-seed offline fuzz of the frame decoder: every
// corruption is a frame, "wait for more", or a typed FrameError.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netlist/synthetic_generator.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace scandiag::serve {
namespace {

// ---- offline: 100-seed frame-decoder fuzz ---------------------------------

std::string corruptBytes(const std::string& base, Xoroshiro128& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(6);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.nextBelow(s.size());
    switch (rng.nextBelow(4)) {
      case 0:  // flip a byte anywhere (header, CRC, payload)
        s[pos] = static_cast<char>(s[pos] ^ (1 + rng.nextBelow(255)));
        break;
      case 1:  // truncate
        s.erase(pos);
        break;
      case 2:  // delete a span
        s.erase(pos, 1 + rng.nextBelow(8));
        break;
      default:  // inject garbage
        s.insert(pos, std::string(1 + rng.nextBelow(8),
                                  static_cast<char>(rng.nextBelow(256))));
        break;
    }
  }
  return s;
}

TEST(ServeChaos, HundredCorruptFramesNeverEscapeTypedErrors) {
  const std::string base =
      encodeFrame(kDiagnoseRequestFrame, encodeDiagnoseRequest([] {
                    DiagnoseRequest request;
                    request.kind = DiagnoseRequest::Kind::InjectFault;
                    request.gateName = "g123";
                    return request;
                  }()));
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Xoroshiro128 rng(0x5E2EC + seed);
    const std::string bytes = corruptBytes(base, rng);
    try {
      std::size_t consumed = 0;
      const auto frame = decodeFrame(bytes, &consumed);
      if (frame.has_value()) {
        // A frame that decoded intact must have a sane, CRC-true payload; the
        // message layer is fuzzed the same way below.
        EXPECT_LE(consumed, bytes.size());
        try {
          (void)decodeDiagnoseRequest(frame->payload);
        } catch (const FrameFormatError&) {
          ++rejected;  // message-level lie behind a valid CRC
        }
      }
    } catch (const FrameFormatError&) {
      ++rejected;
    } catch (const FrameCorruptError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);  // byte-level mutations rarely keep the CRC true
}

// ---- live-server chaos ----------------------------------------------------

std::string chaosSocketPath(const char* tag) {
  return "/tmp/scandiag_chaos_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

std::string chaosJournalPath(const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/chaos_" + std::to_string(::getpid()) + "_" + tag + ".journal";
  std::filesystem::remove(path);
  return path;
}

int rawConnect(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("chaos: raw connect to " + path + " failed");
  }
  return fd;
}

void sendAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer severed us — a valid chaos outcome
    done += static_cast<std::size_t>(n);
  }
}

/// Reads until the peer closes; returns bytes seen. A short recv timeout
/// bounds the wait so a misbehaving server fails the test, not the suite.
std::size_t drainUntilClose(int fd) {
  struct timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::size_t total = 0;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return total;
    total += static_cast<std::size_t>(n);
  }
}

template <typename Pred>
bool settle(Pred ready) {
  for (int i = 0; i < 1000; ++i) {
    if (ready()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return ready();
}

/// The warm service all live tests share; construction dominates runtime.
const DiagnosisService& chaosService() {
  static const DiagnosisService service(generateNamedCircuit("s953"), ServiceConfig{});
  return service;
}

class RunningServer {
 public:
  explicit RunningServer(ServeOptions options, const DiagnosisService& service = chaosService())
      : server_(service, std::move(options)),
        thread_([this] { exitCode_ = server_.run(); }) {
    if (!server_.waitUntilListening(10000)) {
      stopAndJoin();
      throw std::runtime_error("chaos: server did not start listening");
    }
  }
  ~RunningServer() { stopAndJoin(); }

  DiagnosisServer& server() { return server_; }
  /// Stops (if still running) and returns run()'s exit code.
  int finish() {
    stopAndJoin();
    return exitCode_;
  }

 private:
  void stopAndJoin() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }

  DiagnosisServer server_;
  std::thread thread_;
  int exitCode_ = -1;
};

TEST(ServeChaos, ProtocolGarbageIsRejectedAndSevered) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("garbage");
  RunningServer running(options);

  // Wild length prefix, CRC-corrupt frame, valid frame with unknown type,
  // and pure noise: each must bump framesRejected and cost one connection.
  std::vector<std::string> attacks;
  {
    std::string wild(8, '\0');
    wild[0] = static_cast<char>(0xFF);
    wild[1] = static_cast<char>(0xFF);
    wild[2] = static_cast<char>(0xFF);
    wild[3] = static_cast<char>(0x7F);
    attacks.push_back(wild);
  }
  {
    std::string corrupt = encodeFrame(kPingRequestFrame, "payload");
    corrupt[kFrameHeaderBytes] ^= 0x01;
    attacks.push_back(corrupt);
  }
  attacks.push_back(encodeFrame(0x7777, ""));
  attacks.push_back(std::string("\x01\x02\x03garbage that is not a frame at all", 38));

  std::uint64_t expected = 0;
  for (const std::string& attack : attacks) {
    const int fd = rawConnect(options.socketPath);
    sendAll(fd, attack);
    // The server replies nothing intelligible and closes; wait for the close
    // so the next attack cannot be shed by a still-occupied handler.
    (void)drainUntilClose(fd);
    ::close(fd);
    ++expected;
    ASSERT_TRUE(settle([&] {
      return running.server().stats().snapshot().framesRejected >= expected;
    })) << "frame rejection " << expected << " never booked";
  }

  // The server survived four attacks: a well-formed ping still answers.
  EXPECT_NO_THROW((void)ping({.socketPath = options.socketPath}));
}

TEST(ServeChaos, SlowlorisIsSeveredByTheIoTimeout) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("slowloris");
  options.handlers = 1;
  options.ioTimeoutMs = 200;  // the whole point: a short whole-frame budget
  RunningServer running(options);

  // Half a frame, then silence: the single handler must get the connection
  // back via the I/O timeout instead of hanging forever.
  const std::string frame = encodeFrame(kPingRequestFrame, "slow");
  const int slow = rawConnect(options.socketPath);
  sendAll(slow, frame.substr(0, 5));
  const auto start = std::chrono::steady_clock::now();
  (void)drainUntilClose(slow);  // server severs us when the timeout trips
  const auto waited = std::chrono::steady_clock::now() - start;
  ::close(slow);
  EXPECT_LT(waited, std::chrono::seconds(8)) << "slowloris held the handler too long";

  // The freed handler serves honest clients again.
  EXPECT_NO_THROW((void)ping({.socketPath = options.socketPath}));
}

TEST(ServeChaos, SaturationShedsBusyInsteadOfQueueingUnboundedly) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("saturate");
  options.queueCapacity = 1;
  options.handlers = 1;
  RunningServer running(options);

  // Pin the only handler: the pong proves it owns this connection and is now
  // blocked reading our next frame. Then fill the 1-deep queue. Everything
  // after that must be shed BUSY at admission — deterministically.
  const int held = rawConnect(options.socketPath);
  sendAll(held, encodeFrame(kPingRequestFrame, ""));
  char pong[64];
  ASSERT_GT(::recv(held, pong, sizeof pong, 0), 0) << "ping reply missing";
  const int filler = rawConnect(options.socketPath);

  // requestDiagnosis (not ping): it folds every shed-adjacent failure mode —
  // BUSY reply, or the close racing our write — into ClientError at
  // maxAttempts=1, so the assertion has no timing window.
  ClientOptions oneShot;
  oneShot.socketPath = options.socketPath;
  oneShot.maxAttempts = 1;
  DiagnoseRequest probe;
  probe.kind = DiagnoseRequest::Kind::InjectFault;
  probe.gateName = "unimportant";
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)requestDiagnosis(oneShot, probe), ClientError)
        << "request " << i << " was not shed";
  }
  EXPECT_TRUE(settle([&] { return running.server().stats().snapshot().shed >= 3; }));
  ::close(filler);
  ::close(held);
}

TEST(ServeChaos, DefectRequestUnderDeadlinePressureRepliesSupersetNotError) {
  // Defect-zoo degrade-never-lie: a k-fault scenario request whose deadline
  // trips must come back as a typed DEADLINE reply carrying a non-empty
  // candidate superset (all cells if no partition ran) — never an Error,
  // never a crash, never an empty candidate list. A service heavy enough
  // that scenario generation can outlive a 1 ms budget: s9234 with an
  // 8192-pattern set fault-simulates each of the four components over 8192
  // patterns before any partition can run.
  ServiceConfig heavy;
  heavy.diagnosis.numPatterns = 8192;
  const DiagnosisService service(generateNamedCircuit("s9234"), heavy);
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::DefectScenario;
  // k=4 with every permanent kind plus intermittent sampling: the heaviest
  // generation path.
  request.defectSpec = "4,bridge,open,intermittent:0.5";
  request.defectIndex = 1;
  const DiagnoseReply full = service.handle(request, 0, std::chrono::milliseconds(0), nullptr);
  ASSERT_EQ(full.status, ReplyStatus::Ok) << full.message;
  const auto coversFull = [&full](const DiagnoseReply& reply) {
    for (const std::uint32_t cell : full.candidateCells) {
      if (std::find(reply.candidateCells.begin(), reply.candidateCells.end(), cell) ==
          reply.candidateCells.end()) {
        return false;
      }
    }
    return true;
  };

  // In process, with a deadline already spent (a negative budget), the
  // Deadline path runs on every machine.
  const DiagnoseReply spent =
      service.handle(request, 0, std::chrono::milliseconds(-1), nullptr);
  ASSERT_EQ(spent.status, ReplyStatus::Deadline) << spent.message;
  EXPECT_TRUE(spent.detected);
  EXPECT_FALSE(spent.resolved);
  EXPECT_FALSE(spent.candidateCells.empty()) << "degraded reply lost the superset";
  EXPECT_TRUE(coversFull(spent));
  EXPECT_LT(spent.confidence, full.confidence);
  EXPECT_LT(spent.partitionsUsed, spent.partitionsTotal);

  // Over the socket a 1 ms budget may or may not trip, so only what holds
  // either way is asserted.
  ServeOptions options;
  options.socketPath = chaosSocketPath("defect_deadline");
  options.requestDeadlineMs = 1;
  RunningServer running(options, service);
  ClientOptions client;
  client.socketPath = options.socketPath;
  const DiagnoseReply reply = requestDiagnosis(client, request);
  ASSERT_NE(reply.status, ReplyStatus::Error) << reply.message;
  EXPECT_TRUE(reply.detected);
  EXPECT_FALSE(reply.candidateCells.empty()) << "reply lost the superset";
  if (reply.status == ReplyStatus::Deadline) {
    EXPECT_TRUE(coversFull(reply)) << "degraded answer dropped a candidate cell";
  } else {
    EXPECT_EQ(reply.candidateCells, full.candidateCells);
  }

  // The handler survived the request: an honest ping still answers.
  EXPECT_NO_THROW((void)ping(client));
}

TEST(ServeChaos, DrainReturnsExitSixAndBalancesTheLedger) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("drain");
  options.journalPath = chaosJournalPath("drain");
  RunningServer running(options);

  ClientOptions client;
  client.socketPath = options.socketPath;
  for (int i = 0; i < 3; ++i) (void)ping(client);
  DiagnoseRequest bad;
  bad.kind = DiagnoseRequest::Kind::InjectFault;
  bad.gateName = "no_such_gate";
  const DiagnoseReply reply = requestDiagnosis(client, bad);
  EXPECT_EQ(reply.status, ReplyStatus::Error);

  EXPECT_EQ(running.finish(), 6);

  // Replay after the drain: the ledger balances exactly (pings are not
  // requests; the one Error reply books as aborted — no diagnosis ran).
  const ServeLedger ledger = replayLedger(options.journalPath);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.accepted, 1u);
  EXPECT_EQ(ledger.abortedInFlight, 0u);
  std::filesystem::remove(options.journalPath);
}

TEST(ServeChaos, AbruptDisconnectsLeaveTheServerServing) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("hangup");
  options.handlers = 2;
  RunningServer running(options);

  // Clients that connect and vanish — before, during, and after a frame.
  for (int i = 0; i < 8; ++i) {
    const int fd = rawConnect(options.socketPath);
    if (i % 3 == 1) sendAll(fd, encodeFrame(kPingRequestFrame, "").substr(0, 3));
    if (i % 3 == 2) sendAll(fd, encodeFrame(kPingRequestFrame, ""));
    ::close(fd);  // no goodbye
  }
  // The server must still answer a patient, honest client.
  ClientOptions client;
  client.socketPath = options.socketPath;
  EXPECT_NO_THROW((void)ping(client));
  EXPECT_NO_THROW((void)fetchStats(client));
}

TEST(ServeChaos, RestartedServerContinuesTheLedgerWithoutReusingIds) {
  ServeOptions options;
  options.socketPath = chaosSocketPath("restart");
  options.journalPath = chaosJournalPath("restart");

  DiagnoseRequest bad;
  bad.kind = DiagnoseRequest::Kind::InjectFault;
  bad.gateName = "still_no_such_gate";

  std::uint64_t firstId = 0;
  {
    RunningServer running(options);
    ClientOptions client;
    client.socketPath = options.socketPath;
    firstId = requestDiagnosis(client, bad).requestId;
    EXPECT_EQ(running.finish(), 6);
  }
  {
    RunningServer running(options);
    ClientOptions client;
    client.socketPath = options.socketPath;
    const std::uint64_t secondId = requestDiagnosis(client, bad).requestId;
    EXPECT_GT(secondId, firstId) << "restart reused a journaled request id";
    EXPECT_EQ(running.finish(), 6);
  }
  const ServeLedger ledger = replayLedger(options.journalPath);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.accepted, 2u);
  std::filesystem::remove(options.journalPath);
}

}  // namespace
}  // namespace scandiag::serve

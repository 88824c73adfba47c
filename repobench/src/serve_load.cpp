// serve_s9234: a warm `scandiag serve s9234` child process (2 handlers, 2
// pool threads) under a 6 inject-fault : 1 tester-log : 1 defect-scenario
// request mix.
//
// Load comes from this process only, from at most 2 threads over at most 2
// persistent connections, with client retries off:
//   1. one untimed warm-up pass over every pool item (checks and grades each
//      reply);
//   2. rounds of an open-loop window on a fixed 2 ms schedule (500 req/s,
//      the two connections alternating), each request timed from its due
//      time, then a closed-loop window to saturation on the same two
//      connections.
// Replies are checked against the recorded pool outputs and ground truth,
// and a sample against an in-process DiagnosisService::handle.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "bist/prpg.hpp"
#include "diagnosis/tester_log.hpp"
#include "harness.hpp"
#include "inject/defect_zoo.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/synthetic_generator.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"

extern char** environ;

namespace repobench {
namespace {

using namespace scandiag;
using serve::DiagnoseReply;
using serve::DiagnoseRequest;
using serve::ReplyStatus;

constexpr const char* kCircuit = "s9234";
constexpr const char* kDefectSpec = "2,bridge,open";
constexpr std::uint64_t kDefectSeed = 0x5E7E;
constexpr std::uint64_t kPoolSeed = 0x5E9234;
constexpr std::size_t kInjectPool = 512;
constexpr std::size_t kLogPool = 64;
constexpr std::size_t kDefectPool = 64;
/// Every 25th open-loop request is replayed through an in-process service.
constexpr std::size_t kCrossCheckStride = 25;
constexpr std::size_t kTracedRequests = 400;
/// Requests per second of the open-loop phase: about a ninth of the pinned
/// daemon's closed-loop capacity (4-5 k req/s on 2 CPUs with this mix), so
/// a slow phase of the host lengthens the defect requests that set p90
/// without queueing the rest behind them (see README).
constexpr double kOpenRate = 500.0;
/// Per round: open-loop requests (1 s at 500 req/s), then seconds of closed
/// loop.
constexpr std::size_t kServeOpenWindow = 500;
constexpr double kServeClosedWindowSeconds = 0.25;

enum Kind : std::uint64_t { kInject = 0, kLog = 1, kDefect = 2 };
const char* kindName(std::uint64_t k) { return k == kInject ? "inject" : k == kLog ? "log" : "defect"; }

/// One recorded pool item: the request and what its reply must be.
struct PoolItem {
  std::uint64_t kind = kInject;
  DiagnoseRequest request;
  std::vector<std::size_t> actualCells;  // ground truth (simulation side)
  const scandiag::JsonValue* expected = nullptr;
};

std::uint64_t candidateDigest(const std::vector<std::uint32_t>& cells) {
  std::uint64_t d = kFnvBasis;
  for (std::uint32_t c : cells) d = fnvFold(d, c);
  return d;
}

std::string requestFrame(const DiagnoseRequest& request) {
  return serve::encodeFrame(serve::kDiagnoseRequestFrame, serve::encodeDiagnoseRequest(request));
}

/// A spawned `scandiag serve` child; SIGTERMs and reaps it on destruction.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& socket, const std::string& metrics,
         const std::string& log) {
    const std::vector<std::string> args = {options.scandiagBin, "serve", kCircuit, "--socket", socket,
                                           "--handlers", "2", "--threads", "2", "--queue", "16",
                                           "--metrics", metrics};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + options.scandiagBin + ": " + strerror(rc));
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  /// SIGTERM (drain) and wait; returns the exit status (6 = drained).
  int stop() {
    if (pid_ <= 0) return exitCode_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    exitCode_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    return exitCode_;
  }

 private:
  pid_t pid_ = -1;
  int exitCode_ = -1;
};

/// The CPUs this process may use, split between the daemon (upper half) and
/// the load generator (lower half), so the two never compete for a CPU and
/// the scheduler places them alike in every run. With fewer than four CPUs
/// both sides share them all.
struct CpuSplit {
  cpu_set_t daemon;
  cpu_set_t generator;

  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof all, &all) != 0) throw std::runtime_error("sched_getaffinity failed");
    daemon = generator = all;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    if (cpus.size() < 4) return;
    CPU_ZERO(&daemon);
    CPU_ZERO(&generator);
    for (std::size_t i = 0; i < cpus.size(); ++i) CPU_SET(cpus[i], i < cpus.size() / 2 ? &generator : &daemon);
  }
};

/// Threads inherit the mask of the thread that creates them; so does a
/// spawned process.
void pinCallingThread(const cpu_set_t& cpus) {
  if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) throw std::runtime_error("sched_setaffinity failed");
}

/// A persistent client connection speaking raw frames.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + why);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  void send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error(std::string("send: ") + strerror(errno));
      off += static_cast<std::size_t>(n);
    }
  }
  /// Reads what is available (blocking when `block`), returning complete
  /// reply frames.
  std::vector<serve::Frame> receive(bool block) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, block ? 0 : MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return {};
      throw std::runtime_error(std::string("recv: ") + strerror(errno));
    }
    pending_.append(buf, static_cast<std::size_t>(n));
    std::vector<serve::Frame> frames;
    for (;;) {
      std::size_t consumed = 0;
      std::optional<serve::Frame> frame = serve::decodeFrame(pending_, &consumed);
      if (!frame) break;
      frames.push_back(std::move(*frame));
      pending_.erase(0, consumed);
    }
    return frames;
  }
  /// Sends one request frame and blocks for its reply frame.
  serve::Frame roundTripFrame(const std::string& frameBytes) {
    send(frameBytes);
    for (;;) {
      std::vector<serve::Frame> frames = receive(true);
      if (!frames.empty()) return std::move(frames.front());
    }
  }
  DiagnoseReply roundTrip(const std::string& frameBytes) {
    return serve::decodeDiagnoseReply(roundTripFrame(frameBytes).payload);
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Runs worker(0) here and worker(1) on a second thread; rethrows the first
/// error either raised.
void onTwoConnections(const std::function<void(std::size_t)>& worker, const std::string& phase) {
  std::array<std::string, 2> errors;
  auto guarded = [&](std::size_t c) {
    try {
      worker(c);
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  };
  std::thread second(guarded, 1);
  guarded(0);
  second.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(phase + ": " + e);
  }
}

struct Sample {
  std::size_t seq = 0;
  double sentMs = 0.0;
  double doneMs = 0.0;
  DiagnoseReply reply;
};

/// The load phases of a run: per round, one open-loop window at kOpenRate
/// and one closed-loop window.
struct LoadFigures {
  /// Per round: the open-loop window's p50 and p90 of latency from due
  /// time, and the closed-loop window's Ok replies per second.
  std::vector<double> p50Ms;
  std::vector<double> p90Ms;
  std::vector<double> okRates;
  /// Every open-loop sample, in order: from due time to the reply, and from
  /// due time to the send (generator lateness).
  std::vector<double> latencyMs;
  std::vector<double> latenessMs;

  void addRound(const std::vector<double>& latency, const std::vector<double>& lateness,
                std::size_t closedOk, double closedSeconds) {
    p50Ms.push_back(quantile(latency, 0.5));
    p90Ms.push_back(quantile(latency, 0.9));
    okRates.push_back(static_cast<double>(closedOk) / closedSeconds);
    latencyMs.insert(latencyMs.end(), latency.begin(), latency.end());
    latenessMs.insert(latenessMs.end(), lateness.begin(), lateness.end());
  }
};

/// Sets p50_ms, p90_ms and saturation_rps (medians over rounds), prints
/// them with the sample counts and p99, and
/// invalidates the run when the generator fell behind its schedule as the
/// run went on.
void reportLoad(Report& report, const LoadFigures& figures) {
  const std::vector<double>& latency = figures.latencyMs;
  const std::vector<double>& lateness = figures.latenessMs;
  if (latency.size() < 40 || figures.okRates.empty()) {
    throw std::logic_error("load phase too short");
  }
  // A generator that falls further behind as it goes measures its own
  // backlog, not the daemon's latency.
  const std::size_t quarter = lateness.size() / 4;
  const double earlyLate = quantile({lateness.begin(), lateness.begin() + quarter}, 0.9);
  const double lateLate = quantile({lateness.end() - quarter, lateness.end()}, 0.9);
  if (lateLate > earlyLate + 1.0) {
    report.invalid("generator lateness grew from " + std::to_string(earlyLate) + " ms to " +
                   std::to_string(lateLate) + " ms");
  }
  const double p50 = median(figures.p50Ms);
  const double p90 = median(figures.p90Ms);
  const double saturation = median(figures.okRates);
  report.metric("p50_ms", p50, "ms");
  report.metric("p90_ms", p90, "ms");
  report.metric("saturation_rps", saturation, "req/s");
  char line[512];
  std::snprintf(line, sizeof(line),
                "serve_s9234 requests: open loop at %.0f/s, %zu samples in %zu windows: "
                "p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (all samples), lateness p90 %.4f ms; "
                "closed loop %.1f ok/s",
                kOpenRate, latency.size(), figures.p50Ms.size(), p50, p90,
                quantile(latency, 0.99), quantile(lateness, 0.9), saturation);
  report.note(line);
}

class ServeLoad {
 public:
  ServeLoad(const Options& options, Report& report)
      : options_(options), report_(report), expected_(options, "serve_s9234") {
    const std::string stem = options.runDir + "/serve-" + std::to_string(::getpid());
    socket_ = stem + ".sock";
    metrics_ = stem + "-metrics.json";
    log_ = stem + ".log";
  }
  ~ServeLoad() {
    daemon_.reset();
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
    std::filesystem::remove(metrics_, ec);
    std::filesystem::remove(log_, ec);
  }
  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  int run();

 private:
  void buildLocal(Tracer* tracer, LayerMetrics* layers);
  void buildPool();
  /// Spawns the daemon and returns seconds until its first ping reply.
  double startDaemon();
  const PoolItem& itemAt(std::size_t seq) const;
  /// Checks one reply against its pool item; counts the operation, any
  /// failure, and (when `graded`) the diagnosis for dr and sound_share.
  void checkReply(const PoolItem& item, const DiagnoseReply& reply, bool graded);
  /// One request per pool item, in pool order; `graded` grades the replies
  /// (the same diagnoses for every seed).
  void warmUp(bool graded);
  /// `count` requests due every 1 / kOpenRate seconds from sequence number
  /// `seqBase` on, the two connections alternating.
  std::vector<Sample> openLoop(std::size_t count, std::size_t seqBase);
  /// Back-to-back requests from `seqBase` on for `seconds`; returns Ok replies
  /// per request kind and advances `seqBase` past the last request sent.
  /// Every reply is checked.
  std::array<std::size_t, 3> closedLoop(double seconds, std::size_t& seqBase);
  void crossCheck(const std::vector<Sample>& samples);
  /// Stops the daemon after fetching its stats; sheds count as failures.
  void stopDaemon();
  void traced();
  int record();

  const Options& options_;
  Report& report_;
  ExpectedStore expected_;
  std::string socket_, metrics_, log_;
  const CpuSplit cpus_;
  std::unique_ptr<Daemon> daemon_;
  serve::StatsReply stats_;

  // In-process replica of the daemon's warm state (cross-checks, ground
  // truth, tester logs) — never part of the daemon's setup time.
  std::unique_ptr<Netlist> netlist_;
  std::unique_ptr<PatternSet> patterns_;
  std::unique_ptr<FaultSimulator> sim_;
  std::unique_ptr<serve::DiagnosisService> service_;
  std::vector<PoolItem> pool_;
  std::array<std::vector<std::size_t>, 3> byKind_;
};

void ServeLoad::buildLocal(Tracer* tracer, LayerMetrics* layers) {
  // A rebuild drops the replica first: the simulator refers to the netlist
  // and the patterns.
  service_.reset();
  sim_.reset();
  patterns_.reset();
  netlist_.reset();
  Span gen(tracer, "netlist.generate");
  netlist_ = std::make_unique<Netlist>(generateNamedCircuit(kCircuit));
  const double tGen = gen.close();
  Span lev(tracer, "netlist.levelize");
  const Levelization order = levelize(*netlist_);
  const double tLev = lev.close();
  Span pat(tracer, "bist.patterns");
  const DiagnosisConfig config;
  patterns_ = std::make_unique<PatternSet>(generatePatterns(*netlist_, config.numPatterns, PrpgConfig{}));
  const double tPat = pat.close();
  Span good(tracer, "sim.good");
  sim_ = std::make_unique<FaultSimulator>(*netlist_, *patterns_);
  const double tGood = good.close();
  const ScanTopology topology = ScanTopology::singleChain(netlist_->dffs().size());
  Span prep(tracer, "diagnosis.prepare");
  const DiagnosisPipeline probe(topology, config);
  const double tPrep = prep.close();
  Span svc(tracer, "serve.service");
  service_ = std::make_unique<serve::DiagnosisService>(*netlist_, serve::ServiceConfig{});
  svc.close();
  if (layers) {
    layers->set("netlist.generate_s", tGen);
    layers->set("netlist.levelize_s", tLev);
    layers->set("bist.patterns_s", tPat);
    layers->set("sim.good_s", tGood);
    layers->set("diagnosis.prepare_s", tPrep);
  }
}

void ServeLoad::buildPool() {
  // Pool items are stored by kind and index; requests and ground truth are
  // rebuilt here from the in-process replica.
  DefectMix mix = parseDefectSpec(kDefectSpec);
  mix.seed = kDefectSeed;
  const DefectScenarioGenerator generator(*sim_, mix);
  for (std::size_t i = 0; i < expected_.poolSize(); ++i) {
    const scandiag::JsonValue& rec = expected_.shard(i);
    PoolItem item;
    item.kind = rec.at("kind").asUint();
    item.expected = &rec;
    item.request.kind = static_cast<DiagnoseRequest::Kind>(item.kind);
    if (item.kind == kInject || item.kind == kLog) {
      const GateId gate = static_cast<GateId>(rec.at("gate").asUint());
      const bool sa1 = rec.at("sa").asUint() != 0;
      const FaultResponse response = sim_->simulate(FaultSite{gate, FaultSite::kOutputPin, sa1});
      item.actualCells = response.failingCellOrdinals;
      if (item.kind == kInject) {
        item.request.gateName = netlist_->gateName(gate);
        item.request.stuckAt1 = sa1;
      } else {
        const DiagnosisPipeline& p = service_->pipeline();
        item.request.logText = writeTesterLog(p.engine().run(p.prepared(), response));
      }
    } else {
      item.request.defectSpec = kDefectSpec;
      item.request.defectSeed = kDefectSeed;
      item.request.defectIndex = static_cast<std::uint32_t>(rec.at("index").asUint());
      item.actualCells = generator.generate(item.request.defectIndex).composed.failingCellOrdinals;
    }
    byKind_[item.kind].push_back(pool_.size());
    pool_.push_back(std::move(item));
  }
  for (const auto& list : byKind_) {
    if (list.empty()) throw std::runtime_error("serve pool lacks a request kind");
  }
}

const PoolItem& ServeLoad::itemAt(std::size_t seq) const {
  // 6 inject : 1 log : 1 defect, drawn per sequence number from --seed.
  const std::uint64_t slot = mixSeed(options_.seed, 2 * seq) % 8;
  const std::uint64_t kind = slot < 6 ? kInject : slot == 6 ? kLog : kDefect;
  const std::vector<std::size_t>& list = byKind_[kind];
  return pool_[list[mixSeed(options_.seed, 2 * seq + 1) % list.size()]];
}

void ServeLoad::checkReply(const PoolItem& item, const DiagnoseReply& reply, bool graded) {
  report_.attempted(1);
  const scandiag::JsonValue& want = *item.expected;
  const std::string where = std::string("serve.") + kindName(item.kind);
  if (reply.status != ReplyStatus::Ok) {
    report_.failed(1, where + " reply " + serve::replyStatusName(reply.status) + ": " + reply.message);
    return;
  }
  bool ok = report_.expectEqual(want, "detected", reply.detected ? 1 : 0, where);
  ok = report_.expectEqual(want, "resolved", reply.resolved ? 1 : 0, where) && ok;
  ok = report_.expectEqual(want, "candidates", reply.candidateCells.size(), where) && ok;
  ok = report_.expectEqual(want, "digest", candidateDigest(reply.candidateCells), where) && ok;
  if (!ok) {
    report_.failed(1, where + " reply differs from its recorded output");
    return;
  }
  if (!graded) return;
  std::vector<bool> isCandidate(netlist_->dffs().size(), false);
  for (std::uint32_t c : reply.candidateCells) {
    if (c < isCandidate.size()) isCandidate[c] = true;
  }
  bool wrong = false;
  for (std::size_t cell : item.actualCells) wrong = wrong || !isCandidate[cell];
  report_.diagnoses(1, wrong ? 1 : 0);
  // dr is taken over the inject-fault replies, as a tester would see them.
  if (item.kind == kInject && reply.detected) {
    report_.resolution(reply.candidateCells.size(), item.actualCells.size());
  }
}

double ServeLoad::startDaemon() {
  std::error_code ec;
  std::filesystem::remove(socket_, ec);
  const auto t0 = Clock::now();
  pinCallingThread(cpus_.daemon);
  try {
    daemon_ = std::make_unique<Daemon>(options_, socket_, metrics_, log_);
  } catch (...) {
    pinCallingThread(cpus_.generator);
    throw;
  }
  pinCallingThread(cpus_.generator);
  serve::ClientOptions client;
  client.socketPath = socket_;
  client.maxAttempts = 1;
  client.ioTimeoutMs = 5000;
  for (;;) {
    try {
      serve::ping(client);
      return secondsBetween(t0, Clock::now());
    } catch (const std::exception&) {
      int status = 0;
      if (::waitpid(daemon_->pid(), &status, WNOHANG) == daemon_->pid()) {
        throw std::runtime_error("scandiag serve exited during start-up (see " + log_ + ")");
      }
      if (secondsBetween(t0, Clock::now()) > 60.0) throw std::runtime_error("daemon never answered");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void ServeLoad::warmUp(bool graded) {
  Connection conn(socket_);
  for (const PoolItem& item : pool_) checkReply(item, conn.roundTrip(requestFrame(item.request)), graded);
}

std::vector<Sample> ServeLoad::openLoop(std::size_t total, std::size_t seqBase) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenRate));
  std::vector<Sample> samples(total);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto dueOf = [&](std::size_t i) { return start + period * static_cast<std::int64_t>(i); };
  auto msSince = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  onTwoConnections(
      [&](std::size_t c) {
        // Wake-ups land within microseconds of the schedule instead of the
        // default 50 us timer slack.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        Connection conn(socket_);
        std::deque<std::size_t> inFlight;
        std::size_t next = c;  // connection c sends sequence numbers c, c+2, ...
        while (next < total || !inFlight.empty()) {
          auto now = Clock::now();
          if (next < total && now >= dueOf(next)) {
            Sample& s = samples[next];
            s.seq = seqBase + next;
            conn.send(requestFrame(itemAt(s.seq).request));
            s.sentMs = msSince(Clock::now());
            inFlight.push_back(next);
            next += 2;
            continue;
          }
          // Wait for a reply until the next request is due.
          timespec timeout{1, 0};
          if (next < total) {
            const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(dueOf(next) - now);
            timeout.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
            timeout.tv_nsec = static_cast<long>(wait.count() % 1000000000);
          }
          pollfd pfd{conn.fd(), POLLIN, 0};
          const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
          if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
          if (ready == 0 && next >= total) throw std::runtime_error("replies stopped arriving");
          if (ready <= 0) continue;
          for (serve::Frame& f : conn.receive(false)) {
            if (inFlight.empty()) throw std::runtime_error("reply without a request");
            Sample& s = samples[inFlight.front()];
            inFlight.pop_front();
            s.doneMs = msSince(Clock::now());
            s.reply = serve::decodeDiagnoseReply(f.payload);
          }
        }
      },
      "open loop");
  for (std::size_t i = 0; i < total; ++i) {
    // Latency and lateness are both measured from the due time.
    const double dueMs = msSince(dueOf(i));
    samples[i].sentMs -= dueMs;
    samples[i].doneMs -= dueMs;
  }
  return samples;
}

std::array<std::size_t, 3> ServeLoad::closedLoop(double seconds, std::size_t& seqBase) {
  std::array<std::array<std::size_t, 3>, 2> ok{};
  std::array<std::vector<std::pair<const PoolItem*, DiagnoseReply>>, 2> replies;
  std::array<std::size_t, 2> sent{};
  const auto stopAt = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(seconds));
  onTwoConnections(
      [&](std::size_t c) {
        Connection conn(socket_);
        for (std::size_t seq = seqBase + c; Clock::now() < stopAt; seq += 2) {
          const PoolItem& item = itemAt(seq);
          const DiagnoseReply reply = conn.roundTrip(requestFrame(item.request));
          if (reply.status == ReplyStatus::Ok) ++ok[c][item.kind];
          replies[c].push_back({&item, reply});
          sent[c] = seq + 1;
        }
      },
      "closed loop");
  seqBase = std::max({seqBase, sent[0], sent[1]});
  for (const auto& perConnection : replies) {
    for (const auto& [item, reply] : perConnection) checkReply(*item, reply, false);
  }
  return {ok[0][0] + ok[1][0], ok[0][1] + ok[1][1], ok[0][2] + ok[1][2]};
}

void ServeLoad::crossCheck(const std::vector<Sample>& samples) {
  // The daemon's answer must be exactly what the library gives in process.
  for (std::size_t i = 0; i < samples.size(); i += kCrossCheckStride) {
    const PoolItem& item = itemAt(samples[i].seq);
    const DiagnoseReply local = service_->handle(item.request, 0, std::chrono::milliseconds(0), nullptr);
    const DiagnoseReply& remote = samples[i].reply;
    report_.attempted(1);
    if (local.status != remote.status || local.detected != remote.detected ||
        local.resolved != remote.resolved || local.candidateCells != remote.candidateCells) {
      report_.failed(1, "serve reply differs from in-process handle() for request " +
                            std::to_string(samples[i].seq));
    }
  }
}

void ServeLoad::stopDaemon() {
  serve::ClientOptions client;
  client.socketPath = socket_;
  client.maxAttempts = 1;
  stats_ = serve::fetchStats(client);
  const int exitCode = daemon_->stop();
  if (exitCode != 6) report_.invalid("daemon exited " + std::to_string(exitCode) + ", not 6 (drained)");
  if (stats_.shed > 0) report_.failed(stats_.shed, "daemon shed requests at admission");
}

int ServeLoad::run() {
  if (options_.record) return record();
  buildLocal(nullptr, nullptr);
  buildPool();
  if (options_.trace) {
    traced();
    return 0;
  }

  // Setup: spawn to first ping reply, repeated; the last daemon serves.
  std::vector<double> setups;
  const std::size_t reps = options_.smoke ? 1 : kSetups;
  for (std::size_t r = 0; r < reps; ++r) {
    if (daemon_) daemon_->stop();
    setups.push_back(startDaemon());
  }
  warmUp(/*graded=*/true);

  // Rounds: an open-loop window, then a closed-loop window.
  std::vector<Sample> samples;
  std::vector<double> injectRates, defectRates;
  LoadFigures figures;
  std::size_t seq = 0;
  Rounds rounds(options_, 1);
  for (; rounds.more(); rounds.finished()) {
    const std::vector<Sample> window = openLoop(kServeOpenWindow, seq);
    seq += window.size();
    std::vector<double> latency, lateness;
    for (const Sample& s : window) {
      checkReply(itemAt(s.seq), s.reply, /*graded=*/false);
      latency.push_back(s.doneMs);
      lateness.push_back(s.sentMs);
    }
    samples.insert(samples.end(), window.begin(), window.end());

    const auto t0 = Clock::now();
    const std::array<std::size_t, 3> ok = closedLoop(kServeClosedWindowSeconds, seq);
    const double seconds = secondsBetween(t0, Clock::now());
    figures.addRound(latency, lateness, ok[kInject] + ok[kLog] + ok[kDefect], seconds);
    injectRates.push_back(static_cast<double>(ok[kInject]) / seconds);
    defectRates.push_back(static_cast<double>(ok[kDefect]) / seconds);
  }
  const double rss = peakRssMb(daemon_->pid());
  stopDaemon();
  crossCheck(samples);

  report_.metric("setup_s", median(setups), "s");
  report_.metric("faults_per_s", median(injectRates), "faults/s");
  report_.metric("scenarios_per_s", median(defectRates), "scenarios/s");
  reportLoad(report_, figures);
  report_.emitQuality();
  report_.metric("peak_rss_mb", rss, "MiB");
  return 0;
}

void ServeLoad::traced() {
  LayerMetrics layers;
  Tracer tracer;
  // Setup layers as the daemon pays them, one public call at a time.
  buildLocal(&tracer, &layers);
  startDaemon();
  warmUp(/*graded=*/true);
  const std::vector<Sample> samples = openLoop(options_.smoke ? 1000 : 8000, 0);
  std::vector<double> latency, lateness;
  for (const Sample& s : samples) {
    checkReply(itemAt(s.seq), s.reply, /*graded=*/false);
    latency.push_back(s.doneMs);
    lateness.push_back(s.sentMs);
  }
  layers.set("serve.p99_ms", quantile(latency, 0.99));
  layers.set("serve.p99_samples", static_cast<double>(latency.size()));
  layers.set("serve.lateness_ms", quantile(lateness, 0.9));

  // Untraced reference: the traced requests as plain round trips.
  const std::size_t n = options_.smoke ? 60 : kTracedRequests;
  const std::size_t base = samples.size();
  double untraced = 0.0;
  {
    Connection conn(socket_);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const PoolItem& item = itemAt(base + i);
      checkReply(item, conn.roundTrip(requestFrame(item.request)), false);
    }
    untraced = secondsBetween(t0, Clock::now());
  }

  // Traced pass: codec, round trip and the in-process handle() per request;
  // inject requests are also split into fault simulation, scoring and
  // intersection on the in-process replica.
  std::array<std::vector<double>, 3> handleMs;
  std::vector<double> codecUs, transportMs;
  std::uint64_t sessions = 0;
  std::size_t detected = 0, simulated = 0;
  double duplicate = 0.0;
  const DiagnosisPipeline& pipeline = service_->pipeline();
  Connection conn(socket_);
  tracer.startPass();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const PoolItem& item = itemAt(base + i);
    Span encode(&tracer, "serve.codec", i);
    const std::string frame = requestFrame(item.request);
    double codec = encode.close();
    Span trip(&tracer, "serve.roundtrip", i);
    const serve::Frame replyFrame = conn.roundTripFrame(frame);
    const double tTrip = trip.close();
    Span decode(&tracer, "serve.codec", i);
    // Re-frame the reply so the decode side of the codec is timed too.
    const std::string replyBytes = serve::encodeFrame(replyFrame.type, replyFrame.payload);
    std::size_t consumed = 0;
    const DiagnoseReply reply =
        serve::decodeDiagnoseReply(serve::decodeFrame(replyBytes, &consumed)->payload);
    codec += decode.close();
    checkReply(item, reply, false);
    Span handle(&tracer, std::string("serve.handle.") + kindName(item.kind), i);
    service_->handle(item.request, 0, std::chrono::milliseconds(0), nullptr);
    const double tHandle = handle.close();
    duplicate += tHandle;
    handleMs[item.kind].push_back(tHandle * 1e3);
    codecUs.push_back(codec * 1e6);
    transportMs.push_back((tTrip - tHandle) * 1e3);
    if (item.kind == kInject) {
      const GateId gate = netlist_->findByName(item.request.gateName);
      Span sim(&tracer, "sim.fault", i);
      const FaultResponse r = sim_->simulate(FaultSite{gate, FaultSite::kOutputPin, item.request.stuckAt1});
      duplicate += sim.close();
      ++simulated;
      if (!r.detected()) continue;
      ++detected;
      Span score(&tracer, "diagnosis.score", i);
      const GroupVerdicts verdicts = pipeline.engine().run(pipeline.prepared(), r);
      duplicate += score.close();
      Span intersect(&tracer, "diagnosis.intersect", i);
      pipeline.analyzer().analyze(pipeline.partitions(), verdicts);
      duplicate += intersect.close();
      sessions += pipeline.config().numPartitions * pipeline.config().groupsPerPartition;
    }
  }
  const double wall = secondsBetween(t0, Clock::now());
  stopDaemon();
  crossCheck(samples);

  // obs counters come from the daemon's drain snapshot.
  std::ifstream in(metrics_);
  std::stringstream text;
  text << in.rdbuf();
  const scandiag::JsonValue snapshot = scandiag::parseJson(text.str());
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : snapshot.at("counters").members()) counters[name] = value.asUint();
  layers.setCounters(counters);
  if (counters.count("faults_simulated") && counters.at("faults_simulated") > 0) {
    layers.set("sim.cone_hit_share", static_cast<double>(counters.at("cone_cache_hits")) /
                                         static_cast<double>(counters.at("faults_simulated")));
  }

  const std::map<std::string, double> self = tracer.selfSeconds();
  auto selfOf = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  layers.set("serve.handle_ms.inject", median(handleMs[kInject]));
  layers.set("serve.handle_ms.log", median(handleMs[kLog]));
  layers.set("serve.handle_ms.defect", median(handleMs[kDefect]));
  layers.set("serve.codec_us", median(codecUs));
  layers.set("serve.transport_ms", median(transportMs));
  layers.set("serve.shed", static_cast<double>(stats_.shed));
  layers.set("sim.fault_s", selfOf("sim.fault"));
  layers.set("sim.faults", static_cast<double>(simulated));
  layers.set("sim.detected", static_cast<double>(detected));
  layers.set("sim.detect_share",
             simulated ? static_cast<double>(detected) / static_cast<double>(simulated) : 0.0);
  layers.set("diagnosis.score_s", selfOf("diagnosis.score"));
  layers.set("diagnosis.sessions", static_cast<double>(sessions));
  layers.set("diagnosis.sessions_per_s",
             selfOf("diagnosis.score") > 0 ? static_cast<double>(sessions) / selfOf("diagnosis.score") : 0.0);
  layers.set("diagnosis.intersect_s", selfOf("diagnosis.intersect"));
  layers.setTrace(wall, untraced, duplicate, tracer.topLevelSeconds());
  layers.setChecks(report_);
  layers.emit(report_);
  tracer.writeJsonl(options_.traceDir + "/serve_s9234.jsonl");
}

int ServeLoad::record() {
  buildLocal(nullptr, nullptr);
  // Inject items: distinct detected output-pin faults drawn with kPoolSeed.
  // Log items: the sessions of further detected faults, as tester logs.
  const FaultList universe = FaultList::enumerateCollapsed(*netlist_);
  std::vector<std::pair<GateId, bool>> faults;
  std::set<std::pair<GateId, bool>> seen;
  for (const FaultSite& f : universe.sample(universe.size(), kPoolSeed)) {
    if (faults.size() == kInjectPool + kLogPool) break;
    if (f.pin != FaultSite::kOutputPin || !seen.insert({f.gate, f.stuckAt}).second) continue;
    if (!sim_->simulate(f).detected()) continue;
    faults.push_back({f.gate, f.stuckAt});
  }
  if (faults.size() < kInjectPool + kLogPool) throw std::runtime_error("s9234 has too few detected faults");
  auto recordReply = [&](std::vector<std::pair<std::string, std::uint64_t>> fields,
                         const DiagnoseRequest& request) {
    const DiagnoseReply reply = service_->handle(request, 0, std::chrono::milliseconds(0), nullptr);
    if (reply.status != ReplyStatus::Ok) throw std::runtime_error("pool request failed: " + reply.message);
    fields.push_back({"detected", reply.detected ? 1u : 0u});
    fields.push_back({"resolved", reply.resolved ? 1u : 0u});
    fields.push_back({"candidates", reply.candidateCells.size()});
    fields.push_back({"digest", candidateDigest(reply.candidateCells)});
    expected_.add(makeRecord(fields));
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto [gate, sa1] = faults[i];
    const bool inject = i < kInjectPool;
    DiagnoseRequest request;
    request.kind = inject ? DiagnoseRequest::Kind::InjectFault : DiagnoseRequest::Kind::TesterLog;
    if (inject) {
      request.gateName = netlist_->gateName(gate);
      request.stuckAt1 = sa1;
    } else {
      const DiagnosisPipeline& p = service_->pipeline();
      const FaultResponse r = sim_->simulate(FaultSite{gate, FaultSite::kOutputPin, sa1});
      request.logText = writeTesterLog(p.engine().run(p.prepared(), r));
    }
    recordReply({{"kind", inject ? kInject : kLog}, {"gate", gate}, {"sa", sa1 ? 1u : 0u}}, request);
  }
  for (std::size_t index = 0; index < kDefectPool; ++index) {
    DiagnoseRequest request;
    request.kind = DiagnoseRequest::Kind::DefectScenario;
    request.defectSpec = kDefectSpec;
    request.defectSeed = kDefectSeed;
    request.defectIndex = static_cast<std::uint32_t>(index);
    recordReply({{"kind", kDefect}, {"index", index}}, request);
  }
  expected_.save(std::to_string(kInjectPool) + " inject-fault and " + std::to_string(kLogPool) +
                 " tester-log items (detected s9234 output faults, seed " + std::to_string(kPoolSeed) +
                 "), " + std::to_string(kDefectPool) + " \"" + kDefectSpec + "\" scenarios (seed " +
                 std::to_string(kDefectSeed) + ")");
  return 0;
}

}  // namespace

int runServe(const Options& options, Report& report) {
  ServeLoad load(options, report);
  return load.run();
}

}  // namespace repobench

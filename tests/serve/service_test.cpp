// DiagnosisService request semantics: warm state answers inject and
// tester-log requests to terminal replies (Ok / Deadline / Error — never
// Busy), bad inputs come back as Error replies instead of exceptions, and
// the drain token unwinds as OperationCancelled because a partial answer the
// server chose to abandon has no client value.

#include "serve/service.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bist/prpg.hpp"
#include "diagnosis/tester_log.hpp"
#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_list.hpp"

namespace scandiag::serve {
namespace {

DiagnoseRequest injectRequest(const std::string& gate, bool sa) {
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::InjectFault;
  request.gateName = gate;
  request.stuckAt1 = sa;
  return request;
}

constexpr std::chrono::milliseconds kNoDeadline{0};
/// A negative deadline is already spent: the degradation path runs on every
/// machine, not only where a short budget happens to expire.
constexpr std::chrono::milliseconds kSpentDeadline{-1};

/// One warm service + one reference simulator shared across tests (service
/// construction is the expensive part; tests only read it).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netlist_ = new Netlist(generateNamedCircuit("s953"));
    service_ = new DiagnosisService(Netlist(*netlist_), ServiceConfig{});
    patterns_ = new PatternSet(
        generatePatterns(*netlist_, ServiceConfig{}.diagnosis.numPatterns, PrpgConfig{}));
    simulator_ = new FaultSimulator(*netlist_, *patterns_);
  }
  static void TearDownTestSuite() {
    delete simulator_;
    delete patterns_;
    delete service_;
    delete netlist_;
    simulator_ = nullptr;
    patterns_ = nullptr;
    service_ = nullptr;
    netlist_ = nullptr;
  }

  /// First sampled output fault the pattern set detects, plus its response.
  static std::pair<FaultSite, FaultResponse> detectedFault() {
    for (const FaultSite& fault : FaultList::enumerateCollapsed(*netlist_).sample(64, 0xD1A6)) {
      if (!fault.isOutputFault()) continue;
      FaultResponse response = simulator_->simulate(fault);
      if (response.detected()) return {fault, std::move(response)};
    }
    throw std::runtime_error("service_test: no detected s953 fault in sample");
  }

  static Netlist* netlist_;
  static DiagnosisService* service_;
  static PatternSet* patterns_;
  static FaultSimulator* simulator_;
};

Netlist* ServiceTest::netlist_ = nullptr;
DiagnosisService* ServiceTest::service_ = nullptr;
PatternSet* ServiceTest::patterns_ = nullptr;
FaultSimulator* ServiceTest::simulator_ = nullptr;

TEST_F(ServiceTest, InjectDetectedFaultCandidatesCoverTrueCells) {
  const auto [fault, response] = detectedFault();
  const DiagnoseReply reply =
      service_->handle(injectRequest(netlist_->gateName(fault.gate), fault.stuckAt),
                       /*requestId=*/7, kNoDeadline, nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::Ok);
  EXPECT_EQ(reply.requestId, 7u);
  EXPECT_TRUE(reply.detected);
  EXPECT_EQ(reply.partitionsUsed, reply.partitionsTotal);
  EXPECT_GT(reply.confidence, 0.0);
  // The diagnosis contract: candidates are a superset of the cells that
  // actually failed.
  for (const std::size_t cell : response.failingCellOrdinals) {
    EXPECT_NE(std::find(reply.candidateCells.begin(), reply.candidateCells.end(),
                        static_cast<std::uint32_t>(cell)),
              reply.candidateCells.end())
        << "true failing cell " << cell << " missing from candidates";
  }
}

TEST_F(ServiceTest, UnknownGateIsErrorReplyNotException) {
  const DiagnoseReply reply =
      service_->handle(injectRequest("no_such_gate", false), 1, kNoDeadline, nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::Error);
  EXPECT_FALSE(reply.resolved);
  EXPECT_NE(reply.message.find("no_such_gate"), std::string::npos);
}

TEST_F(ServiceTest, TesterLogMatchesInjectDiagnosis) {
  // A log recorded from the same fault response must diagnose to the same
  // candidate set the inject path produces — the server's schedule and the
  // log's schedule are the same partitions.
  const auto [fault, response] = detectedFault();
  const GroupVerdicts verdicts =
      service_->pipeline().engine().run(service_->pipeline().partitions(), response);

  DiagnoseRequest logRequest;
  logRequest.kind = DiagnoseRequest::Kind::TesterLog;
  logRequest.logText = writeTesterLog(verdicts);
  const DiagnoseReply fromLog = service_->handle(logRequest, 2, kNoDeadline, nullptr);
  const DiagnoseReply fromInject =
      service_->handle(injectRequest(netlist_->gateName(fault.gate), fault.stuckAt), 3,
                       kNoDeadline, nullptr);

  EXPECT_EQ(fromLog.status, ReplyStatus::Ok);
  EXPECT_TRUE(fromLog.detected);
  EXPECT_EQ(fromLog.candidateCells, fromInject.candidateCells);
  EXPECT_EQ(fromLog.resolved, fromInject.resolved);
}

TEST_F(ServiceTest, MalformedLogIsErrorReply) {
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::TesterLog;
  request.logText = "this is not a tester log";
  const DiagnoseReply reply = service_->handle(request, 4, kNoDeadline, nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::Error);
  EXPECT_NE(reply.message.find("tester log"), std::string::npos);
}

TEST_F(ServiceTest, MismatchedLogScheduleIsErrorReply) {
  // A structurally valid log recorded against a 2x4 schedule, sent to a
  // server burned in at 8x16: silently mis-intersecting it would produce a
  // wrong diagnosis, so it must be a hard request error.
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::TesterLog;
  request.logText = "sessions 2 4\nverdict 0 0 fail\n";
  const DiagnoseReply reply = service_->handle(request, 5, kNoDeadline, nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::Error);
  EXPECT_NE(reply.message.find("does not match"), std::string::npos);
}

TEST_F(ServiceTest, LogHeaderOfAnotherShapeIsRefusedBeforeAllocating) {
  // A 19-byte body claiming 65536 x 256 sessions: sizing its verdict tables
  // before the shape check would allocate about 135 MiB per request. Peak RSS
  // is a high-water mark, so the check can only miss growth, never invent it.
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::TesterLog;
  request.logText = "sessions 65536 256\n";
  struct rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  const DiagnoseReply reply = service_->handle(request, 7, kNoDeadline, nullptr);
  struct rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_EQ(reply.status, ReplyStatus::Error);
  EXPECT_NE(reply.message.find("does not match"), std::string::npos) << reply.message;
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024) << "KiB of peak RSS growth";
}

TEST_F(ServiceTest, PreCancelledDrainTokenUnwindsAsCancellation) {
  const auto [fault, response] = detectedFault();
  CancellationToken drain;
  drain.cancel("drain-test");
  EXPECT_THROW(
      (void)service_->handle(injectRequest(netlist_->gateName(fault.gate), fault.stuckAt), 6,
                             kNoDeadline, &drain),
      OperationCancelled);
}

TEST_F(ServiceTest, DeadlineReplyIsAlwaysASoundSuperset) {
  // The contract of a deadline reply: a typed Deadline degradation whose
  // candidates are a superset of the full run's, self-reporting reduced
  // confidence — and it survives the wire unchanged.
  const auto [fault, response] = detectedFault();
  const DiagnoseRequest request =
      injectRequest(netlist_->gateName(fault.gate), fault.stuckAt);
  const DiagnoseReply full = service_->handle(request, 8, kNoDeadline, nullptr);
  const DiagnoseReply reply = service_->handle(request, 9, kSpentDeadline, nullptr);
  ASSERT_EQ(full.status, ReplyStatus::Ok);
  ASSERT_EQ(reply.status, ReplyStatus::Deadline);
  EXPECT_TRUE(reply.detected);
  EXPECT_FALSE(reply.resolved);
  EXPECT_FALSE(reply.candidateCells.empty());
  EXPECT_LT(reply.confidence, full.confidence);
  EXPECT_LT(reply.partitionsUsed, reply.partitionsTotal);
  for (const std::uint32_t cell : full.candidateCells) {
    EXPECT_NE(std::find(reply.candidateCells.begin(), reply.candidateCells.end(), cell),
              reply.candidateCells.end())
        << "degraded answer dropped candidate cell " << cell;
  }

  const DiagnoseReply decoded = decodeDiagnoseReply(encodeDiagnoseReply(reply));
  EXPECT_EQ(decoded.status, reply.status);
  EXPECT_EQ(decoded.requestId, reply.requestId);
  EXPECT_EQ(decoded.detected, reply.detected);
  EXPECT_EQ(decoded.resolved, reply.resolved);
  EXPECT_EQ(decoded.confidence, reply.confidence);
  EXPECT_EQ(decoded.partitionsUsed, reply.partitionsUsed);
  EXPECT_EQ(decoded.partitionsTotal, reply.partitionsTotal);
  EXPECT_EQ(decoded.candidateCells, reply.candidateCells);
  EXPECT_EQ(decoded.message, reply.message);
}

TEST_F(ServiceTest, SpentDeadlineRepliesBeforeSimulating) {
  // A spent deadline is polled before the simulator lock: the reply is the
  // all-cells Deadline superset a spent deadline always gave, and no fault
  // (inject) or defect component (scenario) is simulated for it. Request
  // parsing and spec refusals still come first.
  const auto [fault, response] = detectedFault();
  DiagnoseRequest defect;
  defect.kind = DiagnoseRequest::Kind::DefectScenario;
  defect.defectSpec = "2,bridge,open";
  defect.defectIndex = 3;
  const auto faultsSimulated = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(obs::Counter::FaultsSimulated);
  };
  for (const DiagnoseRequest& request :
       {injectRequest(netlist_->gateName(fault.gate), fault.stuckAt), defect}) {
    const std::uint64_t before = faultsSimulated();
    const DiagnoseReply reply = service_->handle(request, 11, kSpentDeadline, nullptr);
    EXPECT_EQ(faultsSimulated(), before);
    EXPECT_EQ(reply.status, ReplyStatus::Deadline) << reply.message;
    EXPECT_EQ(reply.requestId, 11u);
    EXPECT_TRUE(reply.detected);
    EXPECT_FALSE(reply.resolved);
    EXPECT_EQ(reply.confidence, 0.0);
    EXPECT_EQ(reply.partitionsUsed, 0u);
    EXPECT_EQ(reply.partitionsTotal, service_->pipeline().partitions().size());
    ASSERT_EQ(reply.candidateCells.size(), service_->topology().numCells());
    for (std::uint32_t c = 0; c < reply.candidateCells.size(); ++c)
      EXPECT_EQ(reply.candidateCells[c], c);
    EXPECT_TRUE(reply.message.empty());
  }
  EXPECT_EQ(service_->handle(injectRequest("no_such_gate", false), 12, kSpentDeadline, nullptr)
                .status,
            ReplyStatus::Error);
  defect.defectSpec = "2,bogus";
  EXPECT_EQ(service_->handle(defect, 13, kSpentDeadline, nullptr).status, ReplyStatus::Error);
}

TEST_F(ServiceTest, UndrawableDefectSpecIsErrorReply) {
  // k above the circuit's gate count cannot be drawn: refused in plain
  // words, like a malformed spec, with no source location in the message.
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::DefectScenario;
  request.defectSpec = "100000";
  const DiagnoseReply reply = service_->handle(request, 11, kNoDeadline, nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::Error);
  EXPECT_FALSE(reply.resolved);
  EXPECT_NE(reply.message.find("defect spec '100000'"), std::string::npos) << reply.message;
  EXPECT_EQ(reply.message.find(".cpp:"), std::string::npos) << reply.message;
}

TEST_F(ServiceTest, UndetectedFaultRepliesOkNotDetected) {
  // Find a sampled fault the pattern set does NOT detect, if one exists in
  // the sample; undetected is a normal Ok reply with detected=false.
  for (const FaultSite& fault : FaultList::enumerateCollapsed(*netlist_).sample(64, 0xD1A6)) {
    if (!fault.isOutputFault()) continue;
    if (simulator_->simulate(fault).detected()) continue;
    const DiagnoseReply reply = service_->handle(
        injectRequest(netlist_->gateName(fault.gate), fault.stuckAt), 10, kNoDeadline, nullptr);
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    EXPECT_FALSE(reply.detected);
    EXPECT_TRUE(reply.candidateCells.empty());
    return;
  }
  GTEST_SKIP() << "every sampled s953 fault is detected by the pattern set";
}

}  // namespace
}  // namespace scandiag::serve

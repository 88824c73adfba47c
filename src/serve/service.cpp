#include "serve/service.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "common/errors.hpp"
#include "bist/prpg.hpp"
#include "diagnosis/tester_log.hpp"
#include "inject/defect_zoo.hpp"

namespace scandiag::serve {

namespace {

/// Fills every netlist cache up front: handlers read them concurrently.
Netlist validated(Netlist netlist) {
  netlist.validate();
  return netlist;
}

/// Polled before fault simulation: true when the request's deadline is
/// already spent. Any other stop (a drain) unwinds here, as it would at the
/// partition loop's first poll.
bool deadlineSpent(const RunControl& control, const Watchdog* deadline) {
  if (!control.shouldStop()) return false;
  if (deadline != nullptr && deadline->tripped()) return true;
  control.throwIfStopped();
  return false;
}

DiagnoseReply errorReply(DiagnoseReply reply, std::string message) {
  reply.status = ReplyStatus::Error;
  reply.resolved = false;
  reply.confidence = 0.0;
  reply.message = std::move(message);
  return reply;
}

}  // namespace

DiagnosisService::DiagnosisService(Netlist netlist, const ServiceConfig& config)
    : netlist_(validated(std::move(netlist))),
      config_(config),
      topology_(ScanTopology::blockChains(netlist_.dffs().size(),
                                          std::max<std::size_t>(config.numChains, 1))),
      patterns_(generatePatterns(netlist_, config.diagnosis.numPatterns, PrpgConfig{})),
      pipeline_(topology_, config.diagnosis),
      recovery_(topology_, RetryPolicy{}),
      simulator_(netlist_, patterns_) {}

DiagnoseReply DiagnosisService::handle(const DiagnoseRequest& request, std::uint64_t requestId,
                                       std::chrono::milliseconds deadline,
                                       CancellationToken* cancel) const {
  DiagnoseReply reply;
  reply.requestId = requestId;
  reply.partitionsTotal = static_cast<std::uint32_t>(pipeline_.partitions().size());

  // Per-request deadline: a private token so one request's trip never
  // touches another's, wrapped in a watchdog the partition loop polls. A
  // negative budget trips on the first poll.
  CancellationToken deadlineToken;
  std::unique_ptr<Watchdog> watchdog;
  if (deadline.count() != 0) watchdog = std::make_unique<Watchdog>(deadlineToken, deadline);
  RunControl control{cancel, watchdog.get()};

  switch (request.kind) {
    case DiagnoseRequest::Kind::InjectFault:
      return handleInject(request, std::move(reply), control, watchdog.get());
    case DiagnoseRequest::Kind::TesterLog:
      return handleLog(request, std::move(reply), control, watchdog.get());
    case DiagnoseRequest::Kind::DefectScenario:
      return handleDefect(request, std::move(reply), control, watchdog.get());
  }
  return errorReply(std::move(reply), "unknown request kind");
}

DiagnoseReply DiagnosisService::handleInject(const DiagnoseRequest& request, DiagnoseReply reply,
                                             const RunControl& control,
                                             const Watchdog* deadline) const {
  const GateId site = netlist_.findByName(request.gateName);
  if (site == kInvalidGate) {
    return errorReply(std::move(reply), "no gate named '" + request.gateName + "'");
  }
  const FaultSite fault{site, FaultSite::kOutputPin, request.stuckAt1};
  if (deadlineSpent(control, deadline)) return allCellsDeadline(std::move(reply));

  FaultResponse response;
  {
    const std::lock_guard<std::mutex> lock(simMutex_);
    response = simulator_.simulate(fault);
  }
  if (!response.detected()) {
    reply.status = ReplyStatus::Ok;
    reply.detected = false;
    return reply;
  }
  reply.detected = true;
  return diagnoseResponse(response, std::move(reply), control, deadline);
}

DiagnoseReply DiagnosisService::handleDefect(const DiagnoseRequest& request, DiagnoseReply reply,
                                             const RunControl& control,
                                             const Watchdog* deadline) const {
  // A spec the circuit cannot draw is refused like a malformed one. The
  // pools read only the validated netlist's caches, so they are built
  // outside the simulator lock; generate() fault-simulates every component
  // and holds the lock like InjectFault's single simulate(). A deadline
  // spent by then skips generation: the all-cells superset needs none.
  FaultResponse response;
  try {
    DefectMix mix = parseDefectSpec(request.defectSpec);
    if (request.defectSeed != 0) mix.seed = request.defectSeed;
    const DefectScenarioGenerator generator(simulator_, mix);
    if (deadlineSpent(control, deadline)) return allCellsDeadline(std::move(reply));
    const std::lock_guard<std::mutex> lock(simMutex_);
    response = generator.generate(request.defectIndex).composed;
  } catch (const std::invalid_argument& e) {
    return errorReply(std::move(reply), e.what());
  }
  if (!response.detected()) {
    reply.status = ReplyStatus::Ok;
    reply.detected = false;
    return reply;
  }
  reply.detected = true;
  return diagnoseResponse(response, std::move(reply), control, deadline);
}

DiagnoseReply DiagnosisService::handleLog(const DiagnoseRequest& request, DiagnoseReply reply,
                                          const RunControl& control,
                                          const Watchdog* deadline) const {
  (void)control;
  (void)deadline;  // log diagnosis runs no sessions; recovery is sub-ms
  // The server's partition schedule is burned in at startup (it mirrors the
  // BIST controller); a log recorded against a different schedule would be
  // silently mis-intersected, so the parser refuses any other shape — before
  // it sizes a verdict table from the untrusted header.
  TesterLog log;
  try {
    log = parseTesterLogString(request.logText,
                               SessionShape{config_.diagnosis.numPartitions,
                                            config_.diagnosis.groupsPerPartition});
  } catch (const ParseError& e) {
    return errorReply(std::move(reply), std::string("tester log: ") + e.what());
  }
  reply.detected = true;
  // A recorded log cannot be re-run: recovery with a null rerun callback
  // degrades inconsistent partitions instead of retrying them (the same
  // policy as `scandiag offline`).
  const RecoveredDiagnosis recovered =
      recovery_.recover(pipeline_.partitions(), log.verdicts, nullptr);
  return finishReply(std::move(reply), recovered, pipeline_.partitions().size(),
                     /*deadlineHit=*/false);
}

DiagnoseReply DiagnosisService::diagnoseResponse(const FaultResponse& response,
                                                 DiagnoseReply reply, const RunControl& control,
                                                 const Watchdog* deadline) const {
  const std::vector<Partition>& partitions = pipeline_.partitions();
  const PreparedPartitionSet& prepared = pipeline_.prepared();

  GroupVerdicts verdicts;
  verdicts.failing.reserve(partitions.size());
  std::size_t used = 0;
  bool deadlineHit = false;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (control.shouldStop()) {
      if (deadline != nullptr && deadline->tripped()) {
        deadlineHit = true;
        break;
      }
      // Not the deadline: the server is draining (or a test cancelled us).
      // A partial answer the server chose to abandon has no client value —
      // unwind; the server books ABORTED and closes the connection.
      control.throwIfStopped();
    }
    PartitionVerdictRow row = pipeline_.engine().runPartition(prepared, p, response);
    verdicts.failing.push_back(std::move(row.failing));
    ++used;
  }

  if (used == 0) return allCellsDeadline(std::move(reply));

  const RecoveredDiagnosis recovered =
      recovery_.recover(std::span(partitions).first(used), verdicts, nullptr);
  return finishReply(std::move(reply), recovered, used, deadlineHit);
}

DiagnoseReply DiagnosisService::allCellsDeadline(DiagnoseReply reply) const {
  // Deadline expired before any partition ran: the only sound superset is
  // every cell. Still a valid (if useless) degraded answer; `detected` stays
  // set because the superset covers any response the request could have.
  reply.status = ReplyStatus::Deadline;
  reply.detected = true;
  reply.resolved = false;
  reply.confidence = 0.0;
  reply.partitionsUsed = 0;
  reply.candidateCells.reserve(topology_.numCells());
  for (std::size_t c = 0; c < topology_.numCells(); ++c) {
    reply.candidateCells.push_back(static_cast<std::uint32_t>(c));
  }
  return reply;
}

DiagnoseReply DiagnosisService::finishReply(DiagnoseReply reply,
                                            const RecoveredDiagnosis& recovered,
                                            std::size_t partitionsUsed, bool deadlineHit) const {
  reply.status = deadlineHit ? ReplyStatus::Deadline : ReplyStatus::Ok;
  reply.resolved = recovered.resolved && !deadlineHit;
  reply.partitionsUsed =
      static_cast<std::uint32_t>(partitionsUsed - recovered.droppedPartitions.size());
  // recovered.confidence already decays for repairs/drops within the
  // partitions that ran; scale again by the fraction of the schedule that
  // ran at all, so a 2-of-8-partition deadline answer self-reports as weak.
  const double fraction = reply.partitionsTotal == 0
                              ? 1.0
                              : static_cast<double>(partitionsUsed) / reply.partitionsTotal;
  reply.confidence = recovered.confidence * fraction;
  const std::vector<std::size_t> cells = recovered.candidates.cells.toIndices();
  reply.candidateCells.reserve(cells.size());
  for (std::size_t c : cells) reply.candidateCells.push_back(static_cast<std::uint32_t>(c));
  return reply;
}

}  // namespace scandiag::serve

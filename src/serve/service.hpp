// DiagnosisService: the immutable warm state + per-request compute of
// `scandiag serve`.
//
// Everything expensive is paid once at construction — circuit parse,
// levelization, the collapsed fault universe, pattern generation, fault-free
// simulation, cone caches (as they warm), PreparedPartitionSet — and shared
// read-only across requests.
// The only mutable compute state is the one FaultSimulator: it is explicitly
// single-thread-at-a-time (mutable cone cache + scratch, see
// sim/fault_simulator.hpp), so handlers hold simMutex_ around simulate() and
// DefectScenarioGenerator::generate() only. The netlist is validated at
// construction, so a defect request builds its scenario pools from the
// netlist's caches unlocked, and diagnosis after simulation runs unlocked
// too. The schedule is the fixed one, unpruned: the CLI refuses --scheme
// adaptive and --prune.
//
// handle() implements the graceful-degradation half of the request
// lifecycle. The deadline is first polled before fault simulation, after
// the request is parsed (and a defect spec checked): a spent one answers the
// all-cells superset without taking the simulator lock. Partitions are
// evaluated one at a time through
// SessionEngine::runPartition with the RunControl polled between them; when
// the per-request watchdog trips, the partitions that DID run are fed to
// DiagnosisRecovery — an intersection over fewer partitions is a guaranteed
// superset of the true failing cells — and the reply degrades to DEADLINE
// with confidence scaled by partitionsUsed/partitionsTotal. A cancellation
// that is NOT the watchdog (drain) unwinds as OperationCancelled instead:
// there is no client value in a partial answer the server chose to abandon.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/watchdog.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/recovery.hpp"
#include "serve/protocol.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag::serve {

struct ServiceConfig {
  DiagnosisConfig diagnosis{};
  std::size_t numChains = 1;
};

class DiagnosisService {
 public:
  DiagnosisService(Netlist netlist, const ServiceConfig& config);

  const Netlist& netlist() const { return netlist_; }
  const ServiceConfig& config() const { return config_; }
  const ScanTopology& topology() const { return topology_; }
  const DiagnosisPipeline& pipeline() const { return pipeline_; }

  /// Serves one request to a terminal reply (Ok / Deadline / Error — never
  /// Busy; admission is the server's job). `deadline` zero means none; a
  /// negative one is already spent, so nothing is simulated and the reply is
  /// the all-cells Deadline superset (the server's budget is unsigned and
  /// never negative). `cancel` (optional) is the drain token; when it trips
  /// without the deadline having tripped, this throws OperationCancelled.
  DiagnoseReply handle(const DiagnoseRequest& request, std::uint64_t requestId,
                       std::chrono::milliseconds deadline, CancellationToken* cancel) const;

 private:
  DiagnoseReply handleInject(const DiagnoseRequest& request, DiagnoseReply reply,
                             const RunControl& control, const Watchdog* deadline) const;
  DiagnoseReply handleLog(const DiagnoseRequest& request, DiagnoseReply reply,
                          const RunControl& control, const Watchdog* deadline) const;
  /// Defect-zoo scenario: regenerates the (spec, seed, index) scenario
  /// deterministically and diagnoses its permanent union overlay through the
  /// same per-partition deadline-aware loop (intermittent components are
  /// diagnosed at their permanent envelope — the sampling path lives in
  /// DefectZooPipeline, not the service).
  DiagnoseReply handleDefect(const DiagnoseRequest& request, DiagnoseReply reply,
                             const RunControl& control, const Watchdog* deadline) const;
  /// The shared back half: per-partition evaluation of `response` under
  /// `control`, then recovery over the partitions that ran.
  DiagnoseReply diagnoseResponse(const FaultResponse& response, DiagnoseReply reply,
                                 const RunControl& control, const Watchdog* deadline) const;
  /// The reply when the deadline is spent before any partition runs.
  DiagnoseReply allCellsDeadline(DiagnoseReply reply) const;
  DiagnoseReply finishReply(DiagnoseReply reply, const RecoveredDiagnosis& recovered,
                            std::size_t partitionsUsed, bool deadlineHit) const;

  Netlist netlist_;
  ServiceConfig config_;
  ScanTopology topology_;
  PatternSet patterns_;
  DiagnosisPipeline pipeline_;
  DiagnosisRecovery recovery_;
  FaultSimulator simulator_;
  // Serializes every use of simulator_ (see class comment).
  mutable std::mutex simMutex_;
};

}  // namespace scandiag::serve

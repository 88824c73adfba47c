// End-to-end diagnosis pipeline and experiment drivers.
//
// DiagnosisPipeline binds a scan topology to a fully-specified diagnosis
// configuration (scheme, partition/group counts, signature mode, pruning) and
// turns FaultResponses into candidate sets and DR reports. Partitions are
// built once per pipeline — the hardware applies the same partition sequence
// to every device — and reused for all faults, so evaluating another scheme
// or partition budget on the same fault-simulation data is cheap.
//
// prepareWorkload() packages the front half of every experiment in the paper:
// generate patterns, pick 500 detected stuck-at faults, fault-simulate them
// into responses (see DESIGN.md §3 for the per-table parameters).
#pragma once

#include <memory>
#include <vector>

#include "bist/prpg.hpp"
#include "common/watchdog.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/metrics.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "diagnosis/session_engine.hpp"
#include "diagnosis/superposition_pruner.hpp"
#include "diagnosis/two_step_scheme.hpp"

namespace scandiag {

struct DiagnosisConfig {
  SchemeKind scheme = SchemeKind::TwoStep;
  std::size_t numPartitions = 8;
  std::size_t groupsPerPartition = 16;
  SchemeConfig schemeConfig{};
  SignatureMode mode = SignatureMode::Exact;
  bool pruning = false;
  std::size_t numPatterns = 128;
  /// Verdict MISR width in SignatureMode::Misr (primitive taps); pruning
  /// signatures always use the kPruneDegree side register.
  unsigned misrDegree = 16;
};

struct FaultDiagnosis {
  CandidateSet candidates;
  std::size_t candidateCount = 0;
  std::size_t actualCount = 0;
};

class AdaptivePlanner;

class DiagnosisPipeline {
 public:
  DiagnosisPipeline(const ScanTopology& topology, const DiagnosisConfig& config);
  ~DiagnosisPipeline();
  DiagnosisPipeline(DiagnosisPipeline&&) = default;
  DiagnosisPipeline& operator=(DiagnosisPipeline&&) = default;

  /// Empty for SchemeKind::Adaptive (the schedule is chosen online per fault;
  /// see adaptive()).
  const std::vector<Partition>& partitions() const { return prepared_.partitions(); }
  /// The pre-indexed schedule (group tables built once at construction);
  /// shared read-only with the resilience layer and across pool workers.
  const PreparedPartitionSet& prepared() const { return prepared_; }
  const DiagnosisConfig& config() const { return config_; }
  const ScanTopology& topology() const { return *topology_; }
  /// Exposed for the resilience layer (src/inject): retry re-runs go through
  /// the same engine; checked analysis through the same analyzer.
  const SessionEngine& engine() const { return engine_; }
  const CandidateAnalyzer& analyzer() const { return analyzer_; }
  /// Non-null iff config().scheme == SchemeKind::Adaptive: the online
  /// entropy-greedy scheduler diagnose() routes through (see
  /// adaptive_planner.hpp).
  const AdaptivePlanner* adaptive() const { return adaptive_.get(); }

  /// Diagnoses one fault: sessions → inclusion-exclusion → optional pruning,
  /// or the planner's greedy loop on the adaptive scheme. Reads no clock
  /// (per-fault clock reads would cost ~5-10% of a microsecond-scale
  /// diagnosis); counters are the deterministic record of its work.
  /// `scratch` (optional) is the calling worker's batch-scorer buffers,
  /// reused across the faults of its chunk. `verdictDigest` (optional)
  /// receives an FNV-1a digest of the realized schedule's verdict rows — the
  /// audit fingerprint the checkpoint layer journals with each fault.
  FaultDiagnosis diagnose(const FaultResponse& response, SessionBatchScratch* scratch = nullptr,
                          std::uint64_t* verdictDigest = nullptr) const;

  /// DR over a set of detected-fault responses: evaluateWithCheckpoint
  /// without a record sink (one loop serves both). `control` is polled at
  /// fault granularity; a trip unwinds as OperationCancelled (the default
  /// RunControl is inert).
  DrReport evaluate(const std::vector<FaultResponse>& responses,
                    const RunControl& control = {}) const;

  /// DR after each partition-count prefix 1..numPartitions (pruning is not
  /// applied — matches the paper's Figure 5 protocol "without pruning").
  /// `control` is polled at fault granularity, as in evaluate().
  /// For the adaptive scheme, prefix p reads the greedy trajectory at session
  /// budget (p+1) * groupsPerPartition — the planner's anytime curve, not a
  /// re-run per budget (identical by construction for uniform group counts).
  std::vector<double> evaluateSweep(const std::vector<FaultResponse>& responses,
                                    const RunControl& control = {}) const;

 private:
  const ScanTopology* topology_;
  DiagnosisConfig config_;
  PreparedPartitionSet prepared_;
  SessionEngine engine_;
  CandidateAnalyzer analyzer_;
  SuperpositionPruner pruner_;
  std::unique_ptr<AdaptivePlanner> adaptive_;  // non-null iff scheme == Adaptive
};

/// Builds the partition sequence a config implies (exposed for tests/benches).
/// Throws std::invalid_argument, naming the scheme, the group count and the
/// chain length, when the scheme cannot split the chain into that many groups
/// (interval groups are nonempty runs, random-selection labels are bit
/// fields), and for SchemeKind::Adaptive, which has no fixed sequence — its
/// schedule is chosen online per fault.
std::vector<Partition> buildPartitions(const DiagnosisConfig& config, std::size_t chainLength);

/// The SessionConfig a DiagnosisConfig implies — shared by DiagnosisPipeline
/// and AdaptivePlanner so both run sessions under identical settings.
SessionConfig sessionConfigFor(const DiagnosisConfig& config);

// ---------------------------------------------------------------------------
// Workload preparation (pattern generation + fault selection + fault sim).

struct WorkloadConfig {
  std::size_t numPatterns = 128;
  std::size_t numFaults = 500;
  std::uint64_t faultSeed = 0xFA17;
  PrpgConfig prpg{};
};

struct CircuitWorkload {
  ScanTopology topology;
  /// Detected faults only; size <= numFaults.
  std::vector<FaultResponse> responses;
};

/// Full-scan `netlist` with `numChains` balanced block chains; samples from
/// the collapsed fault universe until `numFaults` detected faults are found
/// (or the universe is exhausted).
CircuitWorkload prepareWorkload(const Netlist& netlist, const WorkloadConfig& config,
                                std::size_t numChains = 1);

}  // namespace scandiag

// Adaptive online partition planning (entropy-greedy session scheduling).
//
// The fixed schemes commit to their whole partition schedule before the first
// session runs, yet the tester learns a verdict row after every partition —
// information the fixed schedule throws away. AdaptivePlanner closes that
// loop per fault:
//
//   1. A *candidate pool* of partitions is built once per pipeline (two
//      interval partitions with successive covering seeds, plus
//      random-selection partitions from three deterministic seed streams,
//      all at the configured group count) and prepared like any fixed
//      schedule, so scoring can use the transposed position→group batch
//      layout.
//   2. Per fault, the surviving-candidate position set S starts as the whole
//      selection axis. Each step scores every unchosen, affordable pool
//      candidate by the expected log-reduction of S — the entropy view: a
//      partition splitting S into groups of c_1..c_b survivors is expected to
//      keep E = Σ_j c_j·(1 − (1 − c_j/n)^w) of the n = |S| positions, where w
//      estimates how many failing positions the fault spreads over (max
//      failing-group count observed so far; 2 before the first
//      observation). Score = (log2(n) − log2(E)) / sessions, so information
//      is charged per session, the unit of tester time.
//   3. The best candidate (ties → lowest pool index) is run through
//      SessionEngine::runPartition, its failing-group union intersects S, and
//      the loop repeats until S cannot shrink (≤ 1 position, or no candidate
//      scores positive — the remaining budget is *saved*), or the session
//      budget (numPartitions × groupsPerPartition, the fixed schedule's
//      tester time) is exhausted.
//
// Determinism: the pool, the scores, and therefore the chosen schedule are
// pure functions of (config, fault response) — independent of thread count
// and evaluation order, so DR reports and the adaptive counters stay
// bit-identical at any thread count (the repo-wide ordered-reduction
// contract). Superposition pruning is rejected for this scheme: pruning needs
// the XOR-signature algebra of a schedule fixed up front.
//
// See docs/ARCHITECTURE.md §14 for the contract and the DR-vs-sessions
// results (bench_adaptive).
#pragma once

#include <functional>
#include <vector>

#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "diagnosis/session_engine.hpp"

namespace scandiag {

/// One executed step of an adaptive schedule: the anytime curve
/// DiagnosisPipeline::evaluateSweep reads.
struct AdaptiveStepTrace {
  std::size_t cumulativeSessions = 0;  // spent through this step
  std::size_t survivorCells = 0;       // expandPositions(S).count() after
};

/// Result of running the adaptive loop for one fault. `verdicts` rows align
/// with `chosen` (step order), so recovery/analysis over the realized
/// schedule works exactly as for a fixed one.
struct AdaptiveOutcome {
  CandidateSet candidates;
  GroupVerdicts verdicts;
  std::vector<std::size_t> chosen;  // pool indices, step order
  std::vector<AdaptiveStepTrace> steps;
  std::size_t sessionsUsed = 0;
};

class AdaptivePlanner {
 public:
  /// Observes (and may corrupt, on the noisy path) each verdict row as it is
  /// produced — the planner then decides on the *observed* row, exactly as a
  /// scheduler driving a real tester would. `step` is the 0-based step
  /// ordinal (the noise-stream partition index of the realized schedule).
  using RowObserver =
      std::function<void(std::size_t step, std::size_t poolIndex, PartitionVerdictRow& row)>;

  /// Builds the candidate pool for `config` (scheme must be Adaptive; throws
  /// std::invalid_argument otherwise, or when pruning is requested).
  AdaptivePlanner(const ScanTopology& topology, const DiagnosisConfig& config);

  /// The prepared candidate pool (index space of AdaptiveOutcome::chosen).
  const PreparedPartitionSet& pool() const { return pool_; }
  std::size_t sessionBudget() const { return budget_; }
  const SessionEngine& engine() const { return engine_; }

  /// Runs the greedy loop for one fault. Deterministic for a given response
  /// and observer behavior; the observer may be null.
  AdaptiveOutcome run(const FaultResponse& response, const RowObserver& observer = {}) const;

  /// The realized schedule of an outcome as a plain partition list (copies of
  /// the chosen pool entries), for recovery and analyzer entry points.
  std::vector<Partition> schedule(const AdaptiveOutcome& outcome) const;

 private:
  /// Pool candidate kind, for the uninformed-first-pick interval prior.
  enum class PoolKind { Interval, Random };

  double scoreCandidate(std::size_t index, const std::vector<std::uint32_t>& counts,
                        std::size_t n, std::size_t spread, bool observedAnything) const;

  const ScanTopology* topology_;
  DiagnosisConfig config_;
  PreparedPartitionSet pool_;
  std::vector<PoolKind> kinds_;  // parallel to pool_.partitions()
  std::size_t budget_ = 0;
  SessionEngine engine_;
};

}  // namespace scandiag

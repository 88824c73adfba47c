// Bounded-budget recovery from inconsistent session verdicts.
//
// Detection (CandidateAnalyzer::analyzeChecked) tells us *that* a schedule's
// verdicts are physically impossible and *which* partition is suspect; this
// module decides what to do about it under a tester-time budget:
//
//   1. Retry: re-run only the suspect partitions' sessions (each re-run
//      costs groupCount sessions against RetryPolicy::sessionBudget) and
//      majority-vote each group verdict across the original row and the
//      re-runs. Ties vote "fail" — the superset-preserving direction, since
//      a wrong fail verdict only inflates candidates while a wrong pass
//      verdict exonerates true failing cells.
//      Exception: a DisjointFailingUnion partition whose first re-run
//      reproduces the original row bit-for-bit is a *deterministic* model
//      violation (a genuine multi-fault union), not noise — retrying it
//      further is wasted budget. Recovery short-circuits after that single
//      confirming re-run and re-analyzes the whole schedule in the checked
//      union mode (CandidateAnalyzer::analyzeUnion), degrading to the
//      superset floor when the cluster count exceeds kMaxUnionFaults.
//   2. Graceful degradation: partitions still inconsistent after the budget
//      are excluded from the intersection entirely (analyzeChecked's skip),
//      widening the candidate set instead of emptying it. If phantom groups
//      survive the budget, the intersection itself is suspect (a lost fail
//      verdict in a used partition shrinks it below the true cells while
//      pointing the phantom reports at the honest partitions), so the
//      candidates are replaced by the leave-one-out widening over the used
//      partitions — a guaranteed superset whenever at most one of them lies:
//      the positions that at most one used partition's failing union misses.
//
// The result always contains every position that survives the consistent
// partitions — for a single verdict flip on a clean schedule this is a
// superset of the true failing cells — plus a confidence score that decays
// with each repair and each dropped partition, and the session count spent
// on re-runs.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "diagnosis/candidate_analyzer.hpp"

namespace scandiag {

/// Lower bound on RecoveredDiagnosis::confidence. The degradation penalties
/// are multiplicative (0.95 per repaired partition, 0.9 per surviving
/// phantom), so a large SOC schedule with hundreds of repairs would underflow
/// to 0.0 — indistinguishable from "no diagnosis at all", even though the
/// result is still a guaranteed superset under the single-liar assumption.
/// Any produced diagnosis therefore reports at least this much confidence;
/// a value at the floor means "maximally degraded, treat as a superset only".
/// The scale: 1.0 = clean and consistent; ~0.9 = one repair or one phantom;
/// the floor (1e-6, ~130 compounded penalties) = take nothing but the
/// superset guarantee.
inline constexpr double kConfidenceFloor = 1e-6;

struct RetryPolicy {
  /// Re-runs per suspect partition; verdicts are majority-voted across the
  /// original row plus these re-runs (2 gives a clean 1-of-3 vote).
  std::size_t maxRetriesPerSession = 2;
  /// Total extra sessions allowed across the whole diagnosis (each partition
  /// re-run costs its groupCount). 0 disables retrying: inconsistent
  /// partitions are dropped immediately.
  std::size_t sessionBudget = 0;

  bool enabled() const { return sessionBudget > 0 && maxRetriesPerSession > 0; }
};

/// Re-executes the sessions of `partition` and returns the fresh verdict row.
/// `attempt` is 1-based per partition so noise models can draw independent,
/// reproducible streams per re-run.
using PartitionRerun =
    std::function<PartitionVerdictRow(std::size_t partition, std::size_t attempt)>;

struct RecoveredDiagnosis {
  CandidateSet candidates;
  /// Inconsistencies detected on the *initial* verdicts (pre-retry).
  std::vector<InconsistencyReport> inconsistencies;
  std::vector<std::size_t> droppedPartitions;  // excluded from the intersection
  /// Sessions spent on re-runs.
  std::size_t retrySessions = 0;
  /// 1.0 for a clean, consistent diagnosis; multiplied by 0.95 per repaired
  /// partition, by 0.9 per unresolved phantom group, and scaled by the
  /// fraction of partitions that stayed in the intersection — never below
  /// kConfidenceFloor (see above for the scale).
  double confidence = 1.0;
  /// False when degradation was needed (a partition was dropped, a phantom
  /// group survived the budget, or a union analysis exceeded kMaxUnionFaults)
  /// — the CLI maps this to its own exit code.
  bool resolved = true;
  /// True when a suspect partition's re-run reproduced its original row
  /// bit-for-bit — a deterministic model violation (multi-fault union), not
  /// tester noise — so the candidates came from the checked union mode
  /// (CandidateAnalyzer::analyzeUnion) instead of the single-fault
  /// intersection; unionClusters is the cluster count it settled on.
  bool unionDiagnosis = false;
  std::size_t unionClusters = 0;

  bool consistent() const { return inconsistencies.empty(); }
};

class DiagnosisRecovery {
 public:
  DiagnosisRecovery(const ScanTopology& topology, const RetryPolicy& policy)
      : topology_(&topology), analyzer_(topology), policy_(policy) {}

  const RetryPolicy& policy() const { return policy_; }

  /// Runs detection on `verdicts`; if inconsistent, retries suspect
  /// partitions via `rerun` within the budget and falls back to dropping
  /// them. `rerun` may be null when retrying is impossible (offline logs) —
  /// detection then goes straight to degradation.
  RecoveredDiagnosis recover(std::span<const Partition> partitions,
                             const GroupVerdicts& verdicts,
                             const PartitionRerun& rerun) const;

 private:
  const ScanTopology* topology_;
  CandidateAnalyzer analyzer_;
  RetryPolicy policy_;
};

}  // namespace scandiag

// Noise-injected, recovery-enabled diagnosis pipeline.
//
// Binds DiagnosisPipeline + VerdictCorruptor + DiagnosisRecovery into the
// end-to-end resilience experiment: sessions run, the corruptor perturbs the
// verdicts (attempt 0), detection flags physically impossible schedules, and
// suspect partitions are re-run — through the corruptor again, with fresh
// independent streams, as on a real noisy tester — under the RetryPolicy
// budget, falling back to dropping inconsistent partitions.
//
// Contracts:
//   * noise.enabled() == false delegates to DiagnosisPipeline::diagnose
//     verbatim — the zero-noise path is bit-identical to the base pipeline
//     (golden values + parallel determinism hold unchanged).
//   * evaluate() keys each fault's noise stream by its index, so the report
//     is bit-identical at every thread count.
//   * Superposition pruning is skipped whenever noise is enabled: corrupted
//     or majority-voted verdicts break the XOR-additive signature algebra
//     the pruner relies on, and pruning against a fictitious GF(2) system
//     can exonerate true failing cells.
#pragma once

#include <cstdint>
#include <vector>

#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/recovery.hpp"
#include "inject/verdict_corruptor.hpp"

namespace scandiag {

struct ResilientDiagnosis {
  CandidateSet candidates;
  std::size_t candidateCount = 0;
  std::size_t actualCount = 0;
  /// Ground truth (simulation side): some true failing cell missing from the
  /// candidate set — the misdiagnosis the DR tables assume cannot happen.
  bool misdiagnosed = false;
  double confidence = 1.0;
  bool resolved = true;
  std::size_t inconsistencies = 0;
  std::size_t retrySessions = 0;
  /// Ground truth: verdict flips the corruptor injected on attempt 0.
  std::size_t injectedEvents = 0;
};

struct NoisyDrReport {
  double dr = 0.0;
  std::size_t faults = 0;
  std::uint64_t sumCandidates = 0;
  std::uint64_t sumActual = 0;
  /// Fraction of faults with at least one exonerated true failing cell.
  double misdiagnosisRate = 0.0;
  /// Fraction of faults whose candidate set came back empty.
  double emptyRate = 0.0;
  double meanConfidence = 1.0;
  std::size_t totalInconsistencies = 0;
  std::size_t totalRetrySessions = 0;
  /// Faults still inconsistent after the retry budget (degraded results).
  std::size_t unresolved = 0;
};

class NoisyPipeline {
 public:
  NoisyPipeline(const ScanTopology& topology, const DiagnosisConfig& config,
                const NoiseConfig& noise, const RetryPolicy& retry);

  const DiagnosisPipeline& base() const { return base_; }
  const NoiseConfig& noise() const { return corruptor_.config(); }
  const RetryPolicy& retry() const { return recovery_.policy(); }

  /// One fault through sessions → corruption → detection → bounded retry.
  /// `faultKey` seeds the fault's noise streams (evaluate() uses the index).
  ResilientDiagnosis diagnose(const FaultResponse& response, std::uint64_t faultKey) const;

  /// Noisy DR + misdiagnosis report over detected responses; bit-identical
  /// at every thread count. `control` is polled between faults; a trip
  /// unwinds as OperationCancelled (the default RunControl is inert).
  NoisyDrReport evaluate(const std::vector<FaultResponse>& responses,
                         const RunControl& control = {}) const;

 private:
  const ScanTopology* topology_;
  DiagnosisPipeline base_;
  VerdictCorruptor corruptor_;
  DiagnosisRecovery recovery_;
};

}  // namespace scandiag

#include "inject/noisy_pipeline.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/metrics.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

NoisyPipeline::NoisyPipeline(const ScanTopology& topology, const DiagnosisConfig& config,
                             const NoiseConfig& noise, const RetryPolicy& retry)
    : topology_(&topology),
      base_(topology, config),
      corruptor_(noise),
      recovery_(topology, retry) {}

ResilientDiagnosis NoisyPipeline::diagnose(const FaultResponse& response,
                                           std::uint64_t faultKey) const {
  ResilientDiagnosis out;
  out.actualCount = response.failingCellCount();

  if (!corruptor_.config().enabled()) {
    // Zero noise: the resilience layer is bit-identical to the base pipeline.
    FaultDiagnosis clean = base_.diagnose(response);
    out.candidates = std::move(clean.candidates);
    out.candidateCount = clean.candidateCount;
    out.misdiagnosed = !response.failingCells.isSubsetOf(out.candidates.cells);
    return out;
  }

  obs::count(obs::Counter::FaultsDiagnosed);
  const BitVector failingPositions = topology_->collapseCells(response.failingCells);
  // Attempt 0 over the realized schedule. Adaptive: the planner decides on
  // the *corrupted* rows, exactly as a scheduler driving a real noisy tester
  // would, and the realized schedule is its chosen pool entries. Noise
  // streams key on the schedule step, so a retry of step p draws the stream a
  // fixed schedule's partition p would (VerdictCorruptor::corrupt is
  // corruptRow applied to each partition).
  const AdaptivePlanner* planner = base_.adaptive();
  const PreparedPartitionSet& prepared = planner ? planner->pool() : base_.prepared();
  const SessionEngine& engine = planner ? planner->engine() : base_.engine();
  AdaptiveOutcome outcome;
  std::vector<Partition> adaptiveSchedule;
  GroupVerdicts verdicts;
  if (planner) {
    const AdaptivePlanner::RowObserver observer = [&](std::size_t step, std::size_t poolIndex,
                                                      PartitionVerdictRow& row) {
      const CorruptionTrace trace = corruptor_.corruptRow(
          row, prepared.partition(poolIndex), step, failingPositions, faultKey, /*attempt=*/0);
      out.injectedEvents += trace.count();
    };
    outcome = planner->run(response, observer);
    adaptiveSchedule = planner->schedule(outcome);
    verdicts = std::move(outcome.verdicts);
  } else {
    verdicts = engine.run(prepared, response);
    const CorruptionTrace trace = corruptor_.corrupt(verdicts, prepared.partitions(),
                                                     failingPositions, faultKey, /*attempt=*/0);
    out.injectedEvents = trace.count();
  }
  if (out.injectedEvents > 0) {
    obs::count(obs::Counter::NoiseEventsInjected, out.injectedEvents);
  }
  const std::vector<Partition>& schedule = planner ? adaptiveSchedule : prepared.partitions();

  // A retry re-runs one step's sessions on the same noisy tester: fresh
  // capture, fresh independent noise stream (attempt >= 1).
  const PartitionRerun rerun = [&](std::size_t p, std::size_t attempt) {
    PartitionVerdictRow row =
        engine.runPartition(prepared, planner ? outcome.chosen[p] : p, response);
    const CorruptionTrace trace =
        corruptor_.corruptRow(row, schedule[p], p, failingPositions, faultKey, attempt);
    if (trace.count() > 0) {
      obs::count(obs::Counter::NoiseEventsInjected, trace.count());
    }
    return row;
  };

  RecoveredDiagnosis recovered = recovery_.recover(schedule, verdicts, rerun);
  out.candidates = std::move(recovered.candidates);
  out.candidateCount = out.candidates.cellCount();
  out.confidence = recovered.confidence;
  out.resolved = recovered.resolved;
  out.inconsistencies = recovered.inconsistencies.size();
  out.retrySessions = recovered.retrySessions;
  out.misdiagnosed = !response.failingCells.isSubsetOf(out.candidates.cells);
  return out;
}

NoisyDrReport NoisyPipeline::evaluate(const std::vector<FaultResponse>& responses,
                                      const RunControl& control) const {
  // Same ordered-reduction contract as DiagnosisPipeline::evaluate: slot i
  // depends only on responses[i] and the fault-index-keyed noise stream, so
  // the report is bit-identical for every thread count.
  struct Slot {
    std::size_t candidates = 0;
    std::size_t actual = 0;
    bool detected = false;
    bool misdiagnosed = false;
    bool empty = false;
    bool unresolved = false;
    double confidence = 1.0;
    std::size_t inconsistencies = 0;
    std::size_t retrySessions = 0;
  };
  std::vector<Slot> slots(responses.size());
  globalPool().parallelFor(responses.size(), [&](std::size_t i) {
    const FaultResponse& r = responses[i];
    if (!r.detected()) return;
    control.throwIfStopped();
    const ResilientDiagnosis d = diagnose(r, static_cast<std::uint64_t>(i));
    slots[i] = Slot{d.candidateCount,      d.actualCount, true,        d.misdiagnosed,
                    d.candidateCount == 0, !d.resolved,   d.confidence, d.inconsistencies,
                    d.retrySessions};
  });

  DrAccumulator acc;
  NoisyDrReport report;
  double confidenceSum = 0.0;
  std::size_t misdiagnosed = 0, empty = 0;
  for (const Slot& s : slots) {
    if (!s.detected) continue;
    acc.add(s.candidates, s.actual);
    confidenceSum += s.confidence;
    misdiagnosed += s.misdiagnosed ? 1 : 0;
    empty += s.empty ? 1 : 0;
    report.unresolved += s.unresolved ? 1 : 0;
    report.totalInconsistencies += s.inconsistencies;
    report.totalRetrySessions += s.retrySessions;
  }
  report.dr = acc.dr();
  report.faults = acc.faults();
  report.sumCandidates = acc.sumCandidates();
  report.sumActual = acc.sumActual();
  const double n = static_cast<double>(report.faults);
  SCANDIAG_REQUIRE(report.faults > 0, "no detected responses");
  report.misdiagnosisRate = static_cast<double>(misdiagnosed) / n;
  report.emptyRate = static_cast<double>(empty) / n;
  report.meanConfidence = confidenceSum / n;
  return report;
}

}  // namespace scandiag

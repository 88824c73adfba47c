#include "diagnosis/recovery.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

/// Majority vote per group across the original row and `reruns`; ties vote
/// fail (superset-preserving, see header).
BitVector majorityRow(const BitVector& original, const std::vector<BitVector>& reruns) {
  const std::size_t groups = original.size();
  const std::size_t total = 1 + reruns.size();
  BitVector voted(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    std::size_t failVotes = original.test(g) ? 1 : 0;
    for (const BitVector& row : reruns) {
      if (row.test(g)) ++failVotes;
    }
    if (2 * failVotes >= total) voted.set(g);
  }
  return voted;
}

}  // namespace

RecoveredDiagnosis DiagnosisRecovery::recover(const std::vector<Partition>& partitions,
                                              const GroupVerdicts& verdicts,
                                              const PartitionRerun& rerun) const {
  obs::PhaseScope phase(obs::Phase::Recovery);
  RecoveredDiagnosis out;
  CheckedAnalysis checked = analyzer_.analyzeChecked(partitions, verdicts);
  out.inconsistencies = checked.inconsistencies;
  if (!checked.inconsistencies.empty()) {
    obs::count(obs::Counter::InconsistenciesDetected, checked.inconsistencies.size());
  }
  if (checked.consistent()) {
    out.candidates = std::move(checked.candidates);
    return out;
  }

  // Suspect partitions, ascending so the budget is spent deterministically.
  // Remember each partition's first-reported kind: DisjointFailingUnion gets
  // the replay-stability short-circuit below.
  std::set<std::size_t> suspects;
  std::map<std::size_t, InconsistencyKind> suspectKind;
  for (const InconsistencyReport& report : checked.inconsistencies) {
    suspects.insert(report.partition);
    suspectKind.emplace(report.partition, report.kind);
  }

  GroupVerdicts repaired = verdicts;
  // Majority-voted rows invalidate the XOR-additive signature bookkeeping, so
  // the repaired verdicts carry none (pruning is skipped on the noisy path).
  repaired.hasSignatures = false;
  repaired.errorSig.clear();

  std::size_t budget = policy_.sessionBudget;
  std::size_t repairedPartitions = 0;
  std::set<std::size_t> deterministic;
  if (policy_.enabled() && rerun) {
    for (const std::size_t p : suspects) {
      const std::size_t perRerun = partitions[p].groupCount();
      if (perRerun > budget) continue;  // cannot afford even one re-run
      const bool disjointUnion =
          suspectKind.at(p) == InconsistencyKind::DisjointFailingUnion;
      std::vector<BitVector> rows;
      for (std::size_t attempt = 1;
           attempt <= policy_.maxRetriesPerSession && perRerun <= budget; ++attempt) {
        PartitionVerdictRow row = rerun(p, attempt);
        SCANDIAG_ASSERT(row.failing.size() == partitions[p].groupCount(),
                        "re-run verdict row has the wrong group count");
        budget -= perRerun;
        out.retrySessions += perRerun;
        obs::count(obs::Counter::RetrySessionsSpent, perRerun);
        const bool replayStable =
            disjointUnion && attempt == 1 && row.failing == repaired.failing[p];
        rows.push_back(std::move(row.failing));
        if (replayStable) {
          // The disjoint union reproduced exactly: deterministic condition
          // (a genuine multi-fault union), not noise. Keep the row, stop
          // burning budget on majority votes.
          deterministic.insert(p);
          break;
        }
      }
      if (rows.empty() || deterministic.count(p) != 0) continue;
      const BitVector voted = majorityRow(repaired.failing[p], rows);
      if (voted != repaired.failing[p]) {
        repaired.failing[p] = voted;
        ++repairedPartitions;
      }
    }
  }

  if (!deterministic.empty()) {
    // Short-circuit to the checked union mode: the replay-stable disjoint
    // partitions are evidence of simultaneous faults, so the single-fault
    // intersection model no longer applies to any partition. Cluster the
    // failing unions instead; over the fault budget, fall back to the
    // degrade-never-lie superset floor.
    out.unionDiagnosis = true;
    UnionAnalysis analysis = analyzer_.analyzeUnion(partitions, repaired);
    out.unionClusters = analysis.clusters;
    if (analysis.clusters > 1) {
      obs::count(obs::Counter::UnionSplits, analysis.clusters - 1);
    }
    out.candidates = analysis.withinBudget ? std::move(analysis.candidates)
                                           : std::move(analysis.supersetFloor);
    out.resolved = analysis.withinBudget;
    if (!analysis.withinBudget) obs::count(obs::Counter::DegradedSupersets);
    double confidence = 1.0;
    for (std::size_t i = 0; i < repairedPartitions; ++i) confidence *= 0.95;
    for (std::size_t i = 1; i < analysis.clusters; ++i) confidence *= 0.9;
    if (!analysis.withinBudget) confidence *= 0.5;
    out.confidence = std::clamp(confidence, kConfidenceFloor, 1.0);
    return out;
  }

  CheckedAnalysis finalAnalysis = analyzer_.analyzeChecked(partitions, repaired);
  out.candidates = std::move(finalAnalysis.candidates);

  // Partitions outside the final intersection were dropped (degradation).
  std::size_t phantoms = 0;
  for (const InconsistencyReport& report : finalAnalysis.inconsistencies) {
    if (report.kind == InconsistencyKind::PhantomFailingGroup) ++phantoms;
  }

  // A surviving phantom means either a spurious fail verdict in the reported
  // group or — indistinguishable from the verdicts — a lost fail verdict in
  // one of the *used* partitions that shrank the intersection below the true
  // cells. Cover both with leave-one-out widening: the union over used
  // partitions of the intersection that omits each in turn. If at most one
  // used partition lies, the term omitting the liar intersects only honest
  // unions, so the result is a superset of the true failing cells; with no
  // liar every term contains the plain intersection, so it only ever widens.
  if (phantoms > 0 && !finalAnalysis.usedPartitions.empty()) {
    const std::size_t length = topology_->maxChainLength();
    std::vector<BitVector> unions;
    unions.reserve(finalAnalysis.usedPartitions.size());
    for (const std::size_t p : finalAnalysis.usedPartitions) {
      unions.push_back(partitions[p].failingUnion(repaired.failing[p]));
    }
    BitVector widened(length);
    for (std::size_t skip = 0; skip < unions.size(); ++skip) {
      BitVector term(length, true);
      for (std::size_t q = 0; q < unions.size(); ++q) {
        if (q != skip) term &= unions[q];
      }
      widened |= term;
    }
    out.candidates.positions = std::move(widened);
    out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  }
  std::set<std::size_t> dropped;
  for (std::size_t p = 0; p < partitions.size(); ++p) dropped.insert(p);
  for (const std::size_t p : finalAnalysis.usedPartitions) dropped.erase(p);
  out.droppedPartitions.assign(dropped.begin(), dropped.end());
  out.resolved = finalAnalysis.consistent();

  double confidence = partitions.empty()
                          ? 1.0
                          : static_cast<double>(finalAnalysis.usedPartitions.size()) /
                                static_cast<double>(partitions.size());
  for (std::size_t i = 0; i < repairedPartitions; ++i) confidence *= 0.95;
  for (std::size_t i = 0; i < phantoms; ++i) confidence *= 0.9;
  // Floored, not clamped to 0: a produced diagnosis is always distinguishable
  // from "no diagnosis", however degraded (kConfidenceFloor doc in header).
  out.confidence = std::clamp(confidence, kConfidenceFloor, 1.0);
  return out;
}

}  // namespace scandiag

#include "diagnosis/recovery.hpp"

#include <algorithm>
#include <utility>

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

RecoveredDiagnosis DiagnosisRecovery::recover(std::span<const Partition> partitions,
                                              const GroupVerdicts& verdicts,
                                              const PartitionRerun& rerun) const {
  obs::PhaseScope phase(obs::Phase::Recovery);
  RecoveredDiagnosis out;
  CheckedAnalysis checked = analyzer_.analyzeChecked(partitions, verdicts);
  if (!checked.inconsistencies.empty()) {
    obs::count(obs::Counter::InconsistenciesDetected, checked.inconsistencies.size());
  }
  if (checked.consistent()) {
    out.candidates = std::move(checked.candidates);
    return out;
  }

  // Suspect partitions, ascending so the budget is spent deterministically,
  // each with its first-reported kind: DisjointFailingUnion gets the
  // replay-stability short-circuit below.
  std::vector<std::pair<std::size_t, InconsistencyKind>> suspects;
  suspects.reserve(checked.inconsistencies.size());
  for (const InconsistencyReport& report : checked.inconsistencies) {
    suspects.emplace_back(report.partition, report.kind);
  }
  std::stable_sort(suspects.begin(), suspects.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  suspects.erase(std::unique(suspects.begin(), suspects.end(),
                             [](const auto& a, const auto& b) { return a.first == b.first; }),
                 suspects.end());
  out.inconsistencies = std::move(checked.inconsistencies);

  // Majority-voted rows invalidate the XOR-additive signature bookkeeping, so
  // the repaired verdicts carry none (pruning is skipped on the noisy path).
  GroupVerdicts repaired;
  repaired.failing = verdicts.failing;

  std::size_t budget = policy_.sessionBudget;
  std::size_t repairedPartitions = 0;
  bool deterministic = false;
  if (policy_.enabled() && rerun) {
    for (const auto& [p, kind] : suspects) {
      const std::size_t perRerun = partitions[p].groupCount();
      if (perRerun > budget) continue;  // cannot afford even one re-run
      const bool disjointUnion = kind == InconsistencyKind::DisjointFailingUnion;
      bool replayStable = false;
      std::vector<BitVector> rows;
      for (std::size_t attempt = 1;
           attempt <= policy_.maxRetriesPerSession && perRerun <= budget; ++attempt) {
        PartitionVerdictRow row = rerun(p, attempt);
        SCANDIAG_ASSERT(row.failing.size() == partitions[p].groupCount(),
                        "re-run verdict row has the wrong group count");
        budget -= perRerun;
        out.retrySessions += perRerun;
        obs::count(obs::Counter::RetrySessionsSpent, perRerun);
        replayStable = disjointUnion && attempt == 1 && row.failing == repaired.failing[p];
        rows.push_back(std::move(row.failing));
        // A disjoint union that reproduced exactly is a deterministic
        // condition (a genuine multi-fault union), not noise: keep the row,
        // stop burning budget on majority votes.
        if (replayStable) break;
      }
      deterministic = deterministic || replayStable;
      if (rows.empty() || replayStable) continue;
      const BitVector voted = majorityRow(repaired.failing[p], rows);
      if (voted != repaired.failing[p]) {
        repaired.failing[p] = voted;
        ++repairedPartitions;
      }
    }
  }

  if (deterministic) {
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
  //
  // A position is in that union iff at most one used partition's failing
  // union misses it, so one pass per axis word counts the misses in two
  // bit-sliced accumulators (missed once, missed at least twice).
  const std::vector<std::size_t>& used = finalAnalysis.usedPartitions;
  if (phantoms > 0 && !used.empty()) {
    BitVector& widened = out.candidates.positions;
    for (std::size_t w = 0; w < widened.wordCount(); ++w) {
      BitVector::Word once = 0, twice = 0;
      for (const std::size_t p : used) {
        BitVector::Word hit = 0;
        const std::vector<BitVector>& groups = partitions[p].groups;
        repaired.failing[p].forEachSet([&](std::size_t g) { hit |= groups[g].word(w); });
        twice |= once & ~hit;
        once |= ~hit;
      }
      widened.setWord(w, ~twice);
    }
    out.candidates.cells = topology_->expandPositions(widened);
  }
  for (std::size_t p = 0, next = 0; p < partitions.size(); ++p) {
    if (next < used.size() && used[next] == p) {
      ++next;
    } else {
      out.droppedPartitions.push_back(p);
    }
  }
  out.resolved = finalAnalysis.consistent();

  double confidence = partitions.empty()
                          ? 1.0
                          : static_cast<double>(used.size()) /
                                static_cast<double>(partitions.size());
  for (std::size_t i = 0; i < repairedPartitions; ++i) confidence *= 0.95;
  for (std::size_t i = 0; i < phantoms; ++i) confidence *= 0.9;
  // Floored, not clamped to 0: a produced diagnosis is always distinguishable
  // from "no diagnosis", however degraded (kConfidenceFloor doc in header).
  out.confidence = std::clamp(confidence, kConfidenceFloor, 1.0);
  return out;
}

}  // namespace scandiag

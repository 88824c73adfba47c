// Active refinement of multi-fault union candidates: a set-cover /
// binary-search hybrid on top of the binary-search baseline's interval
// sessions.
//
// The passive stage (intersection / checked union analysis) leaves a
// candidate position set that is a sound superset of a permanent k-fault
// union but may carry accidental survivors — positions every failing union
// happened to cover. Refinement spends extra tester sessions to shrink it:
//
//  * The candidate positions decompose into maximal contiguous segments.
//    Each segment is queried whole first (set-cover step: one session can
//    exonerate a whole accidental segment); a failing segment is split
//    binary-search style, exactly the oracle protocol of
//    binary_search_diagnoser. When a parent fails and its left half passes
//    the right half is inferred failing without a session; when the left
//    half fails the right half must still be queried — with k faults both
//    halves can fail, which is precisely where this departs from the
//    single-fault search.
//  * Segments are ordered by a descending accidental-detection-index (ADI)
//    prior (Pomeranz/Reddy): positions whose cells toggle often in the
//    fault-free capture stream are the likeliest accidental survivors, so
//    querying them first buys the largest expected candidate reduction per
//    session when the budget is tight.
//  * The session budget bounds everything. Intervals still unqueried when it
//    runs out stay candidates — refinement only ever exonerates on the
//    strength of a passing session, so the result remains a sound superset
//    (degrade-never-lie), just less sharp.
//
// The oracle abstracts the tester: oracle(lo, hi) is the verdict of one
// session observing selection positions [lo, hi). Whether the refined answer
// counts as resolved is the caller's rule: DefectZooPipeline counts clusters
// over the confirmed positions plus its PODEM confirmations.
#pragma once

#include <vector>

#include "bist/scan_topology.hpp"
#include "diagnosis/binary_search_diagnoser.hpp"
#include "diagnosis/candidate_analyzer.hpp"

namespace scandiag {

struct UnionRefineConfig {
  /// Interval sessions the refinement may spend (0 = passive result only).
  std::size_t sessionBudget = 96;
};

struct UnionRefinement {
  /// Positions confirmed failing by a width-1 failing session (or inference).
  BitVector confirmed;
  /// Positions still untested when the budget ran out.
  BitVector unresolved;
  /// confirmed | unresolved, expanded to cells — always a subset of the
  /// input candidates and, for permanent faults with an exact oracle, always
  /// a superset of the true failing positions. The candidates it drops were
  /// exonerated by a passing session.
  CandidateSet candidates;
  std::size_t sessions = 0;
  /// Interval splits performed (obs::Counter::UnionSplits).
  std::size_t splits = 0;
  /// Budget sufficed: every candidate position was confirmed or exonerated.
  bool complete = false;
};

class UnionDiagnoser {
 public:
  UnionDiagnoser(const ScanTopology& topology, const UnionRefineConfig& config)
      : topology_(&topology), config_(config) {}

  /// Refines `candidatePositions` (selection axis) against the oracle.
  /// `adiPrior` (size maxChainLength, or empty for uniform) orders segments;
  /// higher weight = queried earlier.
  UnionRefinement refine(const BitVector& candidatePositions,
                         const std::vector<double>& adiPrior,
                         const IntervalOracle& oracle) const;

 private:
  const ScanTopology* topology_;
  UnionRefineConfig config_;
};

/// ADI prior from fault-free capture streams: weight of a selection position
/// is the summed transition density of the good capture streams of the cells
/// at that position. Cells whose captures toggle under many patterns are
/// detected (and accidentally implicated) by many patterns — the
/// Pomeranz/Reddy accidental-detection intuition, computed from data the
/// tester already has (the good machine).
std::vector<double> adiPriorFromGoodCaptures(const ScanTopology& topology,
                                             const std::vector<BitVector>& goodCaptures);

}  // namespace scandiag

#include "diagnosis/candidate_analyzer.hpp"

#include "common/assert.hpp"

namespace scandiag {

const char* inconsistencyKindName(InconsistencyKind kind) {
  switch (kind) {
    case InconsistencyKind::AllGroupsPassing:
      return "all-groups-passing";
    case InconsistencyKind::DisjointFailingUnion:
      return "disjoint-failing-union";
    case InconsistencyKind::PhantomFailingGroup:
      return "phantom-failing-group";
  }
  return "unknown";
}

std::string InconsistencyReport::describe() const {
  std::string out = "partition " + std::to_string(partition);
  if (group != BitVector::npos) out += " session " + std::to_string(group);
  out += ": ";
  out += inconsistencyKindName(kind);
  switch (kind) {
    case InconsistencyKind::AllGroupsPassing:
      out += " (another partition failed; a fail verdict was lost here)";
      break;
    case InconsistencyKind::DisjointFailingUnion:
      out += " (failing groups share no position with prior candidates)";
      break;
    case InconsistencyKind::PhantomFailingGroup:
      out += " (failing group disjoint from the final candidate set)";
      break;
  }
  return out;
}

namespace {

/// True iff some failing group of `part` selects at least one position.
bool failingAny(const Partition& part, const BitVector& failing) {
  for (std::size_t g = failing.findFirst(); g != BitVector::npos; g = failing.findNext(g)) {
    if (part.groups[g].any()) return true;
  }
  return false;
}

/// True iff `positions` meets the union of the failing groups of `part`.
bool failingIntersects(const Partition& part, const BitVector& failing,
                       const BitVector& positions) {
  SCANDIAG_REQUIRE(positions.size() == part.length(), "BitVector size mismatch");
  for (std::size_t w = 0; w < positions.wordCount(); ++w) {
    if (positions.word(w) != 0 && (positions.word(w) & part.failingWord(failing, w)) != 0)
      return true;
  }
  return false;
}

}  // namespace

BitVector CandidateAnalyzer::intersect(const std::vector<Partition>& partitions,
                                       const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  BitVector positions(topology_->maxChainLength(), true);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    partitions[p].intersectFailing(verdicts.failing[p], positions);
  }
  return positions;
}

CandidateSet CandidateAnalyzer::analyze(const std::vector<Partition>& partitions,
                                        const GroupVerdicts& verdicts) const {
  CandidateSet out;
  out.positions = intersect(partitions, verdicts);
  out.cells = topology_->expandPositions(out.positions);
  return out;
}

CheckedAnalysis CandidateAnalyzer::analyzeChecked(const std::vector<Partition>& partitions,
                                                  const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  bool anyFailing = false;
  for (std::size_t p = 0; p < partitions.size() && !anyFailing; ++p) {
    anyFailing = failingAny(partitions[p], verdicts.failing[p]);
  }

  CheckedAnalysis out;
  if (!anyFailing) {
    // A fully passing schedule is consistent (the device passed); the empty
    // candidate set is the correct answer, not an inconsistency.
    out.candidates.positions = BitVector(length);
    out.candidates.cells = topology_->expandPositions(out.candidates.positions);
    return out;
  }

  BitVector& positions = out.candidates.positions;
  positions = BitVector(length, true);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    if (!failingAny(part, failing)) {
      // The fault fired (some partition failed) yet this partition saw
      // nothing — impossible, its groups cover every position.
      out.inconsistencies.push_back({InconsistencyKind::AllGroupsPassing, p, BitVector::npos});
      continue;
    }
    if (!failingIntersects(part, failing, positions)) {
      // Intersecting would exonerate everything. Suspect the session whose
      // pass verdict hides the current candidates: the first passing group
      // of p that overlaps them (it must exist — groups cover).
      std::size_t suspect = BitVector::npos;
      for (std::size_t g = 0; g < part.groupCount(); ++g) {
        if (!failing.test(g) && part.groups[g].intersects(positions)) {
          suspect = g;
          break;
        }
      }
      out.inconsistencies.push_back({InconsistencyKind::DisjointFailingUnion, p, suspect});
      continue;
    }
    part.intersectFailing(failing, positions);
    out.usedPartitions.push_back(p);
  }

  // Post-check: a failing group with no overlap with the final candidates is
  // a suspected phantom (pass→fail flip). It never removed candidates, so it
  // is reported but its partition stays used.
  for (const std::size_t p : out.usedPartitions) {
    for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
      if (verdicts.failing[p].test(g) && !partitions[p].groups[g].intersects(positions)) {
        out.inconsistencies.push_back({InconsistencyKind::PhantomFailingGroup, p, g});
      }
    }
  }

  out.candidates.cells = topology_->expandPositions(positions);
  return out;
}

UnionAnalysis CandidateAnalyzer::analyzeUnion(const std::vector<Partition>& partitions,
                                              const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  UnionAnalysis out;
  BitVector& floorPositions = out.supersetFloor.positions;
  floorPositions = BitVector(length);
  // Per-cluster intersections on the selection axis, in formation order.
  std::vector<BitVector> intersections;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    if (!failingAny(part, failing)) continue;  // a pass exonerates nothing here
    failing.forEachSet([&](std::size_t g) { floorPositions |= part.groups[g]; });
    bool merged = false;
    for (BitVector& cluster : intersections) {
      if (failingIntersects(part, failing, cluster)) {
        part.intersectFailing(failing, cluster);
        merged = true;
        break;
      }
    }
    if (!merged) intersections.push_back(part.failingUnion(failing));
  }

  out.clusters = intersections.size();
  out.withinBudget = out.clusters <= kMaxUnionFaults;
  out.candidates.positions = BitVector(length);
  for (const BitVector& cluster : intersections) out.candidates.positions |= cluster;
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  out.supersetFloor.cells = topology_->expandPositions(floorPositions);
  return out;
}

}  // namespace scandiag

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

CandidateSet CandidateAnalyzer::analyze(const std::vector<Partition>& partitions,
                                        const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();
  CandidateSet out;
  out.positions = BitVector(length, true);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    out.positions &= partitions[p].failingUnion(verdicts.failing[p]);
  }
  out.cells = topology_->expandPositions(out.positions);
  return out;
}

CheckedAnalysis CandidateAnalyzer::analyzeChecked(const std::vector<Partition>& partitions,
                                                  const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  // Per-partition failing unions, and whether any partition failed at all.
  std::vector<BitVector> unions(partitions.size());
  bool anyFailing = false;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    unions[p] = partitions[p].failingUnion(verdicts.failing[p]);
    anyFailing = anyFailing || unions[p].any();
  }

  CheckedAnalysis out;
  out.candidates.positions = BitVector(length, true);
  if (!anyFailing) {
    // A fully passing schedule is consistent (the device passed); the empty
    // candidate set is the correct answer, not an inconsistency.
    out.candidates.positions = BitVector(length);
    out.candidates.cells = topology_->expandPositions(out.candidates.positions);
    return out;
  }

  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (unions[p].none()) {
      // The fault fired (some partition failed) yet this partition saw
      // nothing — impossible, its groups cover every position.
      out.inconsistencies.push_back({InconsistencyKind::AllGroupsPassing, p, BitVector::npos});
      continue;
    }
    if (!out.candidates.positions.intersects(unions[p])) {
      // Intersecting would exonerate everything. Suspect the session whose
      // pass verdict hides the current candidates: the first passing group
      // of p that overlaps them (it must exist — groups cover).
      std::size_t suspect = BitVector::npos;
      for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
        if (!verdicts.failing[p].test(g) &&
            partitions[p].groups[g].intersects(out.candidates.positions)) {
          suspect = g;
          break;
        }
      }
      out.inconsistencies.push_back({InconsistencyKind::DisjointFailingUnion, p, suspect});
      continue;
    }
    out.candidates.positions &= unions[p];
    out.usedPartitions.push_back(p);
  }

  // Post-check: a failing group with no overlap with the final candidates is
  // a suspected phantom (pass→fail flip). It never removed candidates, so it
  // is reported but its partition stays used.
  for (const std::size_t p : out.usedPartitions) {
    for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
      if (verdicts.failing[p].test(g) &&
          !partitions[p].groups[g].intersects(out.candidates.positions)) {
        out.inconsistencies.push_back({InconsistencyKind::PhantomFailingGroup, p, g});
      }
    }
  }

  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  return out;
}

UnionAnalysis CandidateAnalyzer::analyzeUnion(const std::vector<Partition>& partitions,
                                              const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  UnionAnalysis out;
  out.supersetFloor.positions = BitVector(length);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    BitVector failingUnion = partitions[p].failingUnion(verdicts.failing[p]);
    if (failingUnion.none()) continue;  // a pass exonerates nothing here
    out.supersetFloor.positions |= failingUnion;
    bool merged = false;
    for (BitVector& cluster : out.clusterPositions) {
      if (cluster.intersects(failingUnion)) {
        cluster &= failingUnion;
        merged = true;
        break;
      }
    }
    if (!merged) out.clusterPositions.push_back(std::move(failingUnion));
  }

  out.clusters = out.clusterPositions.size();
  out.withinBudget = out.clusters <= kMaxUnionFaults;
  out.candidates.positions = BitVector(length);
  for (const BitVector& cluster : out.clusterPositions) out.candidates.positions |= cluster;
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  out.supersetFloor.cells = topology_->expandPositions(out.supersetFloor.positions);
  return out;
}

}  // namespace scandiag

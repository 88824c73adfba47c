#include "diagnosis/candidate_analyzer.hpp"

#include <algorithm>

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

LiveIntersection::LiveIntersection(std::size_t length)
    : positions_(length, true), live_(positions_.wordCount()), pending_(live_.size()) {
  for (std::uint32_t w = 0; w < live_.size(); ++w) live_[w] = w;
}

bool LiveIntersection::meets(const Partition& part, const BitVector& failing) {
  SCANDIAG_REQUIRE(part.length() == positions_.size(), "BitVector size mismatch");
  const std::size_t live = live_.size();
  std::fill_n(pending_.begin(), live, BitVector::Word{0});
  failing.forEachSet([&](std::size_t g) {
    const BitVector::Word* group = part.groups[g].data();
    for (std::size_t k = 0; k < live; ++k) pending_[k] |= group[live_[k]];
  });
  const BitVector::Word* words = positions_.data();
  BitVector::Word any = 0;
  for (std::size_t k = 0; k < live; ++k) any |= pending_[k] &= words[live_[k]];
  return any != 0;
}

void LiveIntersection::commit() {
  BitVector::Word* words = positions_.data();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < live_.size(); ++k) {
    words[live_[k]] = pending_[k];
    if (pending_[k] != 0) live_[kept++] = live_[k];
  }
  live_.resize(kept);
}

bool LiveIntersection::meets(const BitVector& group) const {
  const BitVector::Word* words = positions_.data();
  const BitVector::Word* other = group.data();
  for (const std::uint32_t w : live_) {
    if ((words[w] & other[w]) != 0) return true;
  }
  return false;
}

BitVector CandidateAnalyzer::intersect(std::span<const Partition> partitions,
                                       const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  LiveIntersection live(topology_->maxChainLength());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    live.step(partitions[p], verdicts.failing[p]);
  }
  return live.release();
}

CandidateSet CandidateAnalyzer::analyze(std::span<const Partition> partitions,
                                        const GroupVerdicts& verdicts) const {
  CandidateSet out;
  out.positions = intersect(partitions, verdicts);
  out.cells = topology_->expandPositions(out.positions);
  return out;
}

CheckedAnalysis CandidateAnalyzer::analyzeChecked(std::span<const Partition> partitions,
                                                  const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  CheckedAnalysis out;
  out.usedPartitions.reserve(partitions.size());
  LiveIntersection live(length);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    if (live.meets(part, failing)) {
      live.commit();
      out.usedPartitions.push_back(p);
      continue;
    }
    // Until a partition is used the intersection is the whole axis, so a
    // miss there means no failing group selects any position.
    bool selects = false;
    if (!out.usedPartitions.empty()) {
      for (std::size_t g = failing.findFirst(); g != BitVector::npos && !selects;
           g = failing.findNext(g)) {
        selects = part.groups[g].any();
      }
    }
    if (!selects) {
      // The fault fired (some partition failed) yet this partition saw
      // nothing — impossible, its groups cover every position.
      out.inconsistencies.push_back({InconsistencyKind::AllGroupsPassing, p, BitVector::npos});
      continue;
    }
    // Intersecting would exonerate everything. Suspect the session whose
    // pass verdict hides the current candidates: the first passing group
    // of p that overlaps them (it must exist — groups cover).
    std::size_t suspect = BitVector::npos;
    for (std::size_t g = 0; g < part.groupCount(); ++g) {
      if (!failing.test(g) && live.meets(part.groups[g])) {
        suspect = g;
        break;
      }
    }
    out.inconsistencies.push_back({InconsistencyKind::DisjointFailingUnion, p, suspect});
  }

  if (out.usedPartitions.empty()) {
    // Nothing failed anywhere: a fully passing schedule is consistent (the
    // device passed), and the empty candidate set is the correct answer.
    out.inconsistencies.clear();
    out.candidates.positions = BitVector(length);
    out.candidates.cells = topology_->expandPositions(out.candidates.positions);
    return out;
  }

  // Post-check: a failing group with no overlap with the final candidates is
  // a suspected phantom (pass→fail flip). It never removed candidates, so it
  // is reported but its partition stays used.
  for (const std::size_t p : out.usedPartitions) {
    verdicts.failing[p].forEachSet([&](std::size_t g) {
      if (!live.meets(partitions[p].groups[g])) {
        out.inconsistencies.push_back({InconsistencyKind::PhantomFailingGroup, p, g});
      }
    });
  }

  out.candidates.positions = live.release();
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  return out;
}

UnionAnalysis CandidateAnalyzer::analyzeUnion(std::span<const Partition> partitions,
                                              const GroupVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t length = topology_->maxChainLength();

  UnionAnalysis out;
  BitVector& floorPositions = out.supersetFloor.positions;
  floorPositions = BitVector(length);
  // Per-cluster intersections on the selection axis, in formation order.
  std::vector<LiveIntersection> clusters;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    LiveIntersection fresh(length);
    if (!fresh.meets(part, failing)) continue;  // a pass exonerates nothing here
    fresh.commit();
    floorPositions |= fresh.positions();
    bool merged = false;
    for (LiveIntersection& cluster : clusters) {
      if (cluster.meets(part, failing)) {
        cluster.commit();
        merged = true;
        break;
      }
    }
    if (!merged) clusters.push_back(std::move(fresh));
  }

  out.clusters = clusters.size();
  out.withinBudget = out.clusters <= kMaxUnionFaults;
  out.candidates.positions = BitVector(length);
  for (const LiveIntersection& cluster : clusters) {
    out.candidates.positions |= cluster.positions();
  }
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  out.supersetFloor.cells = topology_->expandPositions(floorPositions);
  return out;
}

}  // namespace scandiag

// Candidate derivation by inclusion–exclusion over group verdicts.
//
// A passing group exonerates every cell it selects; a failing group merely
// keeps its cells suspect. After all sessions the candidate set is therefore
//     ∩ over partitions of ( ∪ failing groups of that partition ),
// computed on the selection axis and then expanded to cells. In exact mode
// this is sound: every truly failing cell lies in a failing group of every
// partition, so it always survives (tested as the soundness invariant).
//
// Every mode runs on one kernel, LiveIntersection: the running intersection
// plus the indices of its nonzero ("live") words. After the first partition
// the intersection is a few clustered positions, so a step, a suspect search
// and a phantom check each read only those words, not the whole axis.
//
// analyzeChecked() adds the noisy-tester invariants. For a real (permanent)
// fault and a correct tester, three things can never happen, because each
// partition's groups cover every position:
//   * a partition with zero failing groups while another partition fails
//     (the fault fired somewhere, so every partition must see it);
//   * a partition whose failing union is disjoint from the intersection of
//     the preceding partitions (the true cells lie in that intersection);
//   * a failing group disjoint from the final candidate set (every failing
//     group contains at least one true failing cell).
// Each violation is reported as an InconsistencyReport — which partition,
// which session (group) is suspect — instead of silently emptying the
// candidate set; partitions that would empty it are excluded so the returned
// candidates stay a meaningful superset for the recovery layer to refine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bist/scan_topology.hpp"
#include "diagnosis/partition.hpp"
#include "diagnosis/session_engine.hpp"

namespace scandiag {

struct CandidateSet {
  /// Suspect positions on the selection axis (size = maxChainLength()).
  BitVector positions;
  /// Suspect cells (size = numCells()); expandPositions(positions).
  BitVector cells;

  std::size_t cellCount() const { return cells.count(); }
};

enum class InconsistencyKind {
  /// Every group of this partition passed while another partition failed:
  /// some fail verdict of this partition was lost (flip, aliasing,
  /// intermittency, or X-masking of all its failing cells).
  AllGroupsPassing,
  /// This partition's failing union shares no position with the running
  /// intersection of the preceding partitions: either one of its fail
  /// verdicts was lost or an earlier pass verdict was spurious.
  DisjointFailingUnion,
  /// A failing group shares no position with the final candidate set: its
  /// fail verdict is almost certainly a spurious pass→fail flip.
  PhantomFailingGroup,
};

const char* inconsistencyKindName(InconsistencyKind kind);

struct InconsistencyReport {
  InconsistencyKind kind;
  std::size_t partition = 0;
  /// Suspect session within the partition (BitVector::npos when unknown).
  std::size_t group = BitVector::npos;

  /// "partition 3 session 7: phantom-failing-group ..." for logs/stderr.
  std::string describe() const;
};

struct CheckedAnalysis {
  CandidateSet candidates;
  std::vector<InconsistencyReport> inconsistencies;
  /// Partitions whose verdicts entered the intersection (ascending).
  std::vector<std::size_t> usedPartitions;

  bool consistent() const { return inconsistencies.empty(); }
};

/// Simultaneous-fault budget of every union mode: analyzeUnion and recovery's
/// union short-circuit resolve at most this many per-fault clusters, and
/// DefectZooPipeline at most this many runs of confirmed failing positions
/// after refinement; more degrade the answer to a guaranteed superset.
inline constexpr std::size_t kMaxUnionFaults = 4;

/// Result of the checked union mode (analyzeUnion): failing-group patterns
/// interpreted as unions of per-fault cones instead of one cone.
struct UnionAnalysis {
  /// Union of the per-cluster intersections (see analyzeUnion).
  CandidateSet candidates;
  /// Union over partitions of the failing unions — contains every position
  /// that ever manifested an error, whatever the defect count. This is the
  /// degrade-never-lie floor: candidates ⊆ supersetFloor always holds, and
  /// for observed (manifested) failing cells supersetFloor is a guaranteed
  /// superset with no modeling assumption at all.
  CandidateSet supersetFloor;
  std::size_t clusters = 0;
  /// clusters <= kMaxUnionFaults. When false the clustering explanation
  /// needs more simultaneous faults than the budget resolves — degrade to
  /// supersetFloor.
  bool withinBudget = true;
};

/// The running intersection of partitions' failing unions on the selection
/// axis, with the ascending indices of its nonzero ("live") words. A step ORs
/// one partition's failing groups over the live words only, so once the
/// intersection has shrunk to a few clustered positions every step and every
/// membership test costs O(live words x groups read), not O(axis words).
/// Scratch of one analysis call: sized by the axis word count, never shared.
class LiveIntersection {
 public:
  /// Every position of an axis of `length` (no partition stepped yet).
  explicit LiveIntersection(std::size_t length);

  /// Computes (failing union of `part`) ∩ the intersection over the live
  /// words, in one pass, and holds it for commit(). True iff it is nonempty.
  bool meets(const Partition& part, const BitVector& failing);
  /// Makes the last meets() result the intersection; dead words drop out.
  void commit();
  /// meets() then commit(): the plain intersection step (may empty the set).
  void step(const Partition& part, const BitVector& failing) {
    meets(part, failing);
    commit();
  }
  /// True iff `group` shares a position with the intersection.
  bool meets(const BitVector& group) const;

  const BitVector& positions() const { return positions_; }
  BitVector release() { return std::move(positions_); }

 private:
  BitVector positions_;
  std::vector<std::uint32_t> live_;       // ascending indices of nonzero words
  std::vector<BitVector::Word> pending_;  // [k] meets() result for word live_[k]
};

class CandidateAnalyzer {
 public:
  explicit CandidateAnalyzer(const ScanTopology& topology) : topology_(&topology) {}

  CandidateSet analyze(std::span<const Partition> partitions,
                       const GroupVerdicts& verdicts) const;

  /// analyze() on the selection axis alone: the intersection of the
  /// partitions' failing unions, with no cell expansion.
  BitVector intersect(std::span<const Partition> partitions,
                      const GroupVerdicts& verdicts) const;

  /// Inclusion–exclusion with the impossibility checks above. On clean
  /// verdicts this returns exactly analyze()'s candidates and no reports.
  CheckedAnalysis analyzeChecked(std::span<const Partition> partitions,
                                 const GroupVerdicts& verdicts) const;

  /// Checked union mode: each partition's failing union is attributed to a
  /// cluster of co-observed faults by greedy intersection — a partition
  /// joins the first cluster its union overlaps (shrinking that cluster's
  /// intersection) and otherwise opens a new cluster. Candidates are the
  /// union of the cluster intersections. For a single permanent fault this
  /// collapses to exactly analyze()'s intersection (one cluster); for a
  /// k-fault union whose partitions each saw every fault it likewise
  /// collapses to the plain intersection, while partitions that saw only a
  /// subset of the faults (intermittency, aliasing) form their own clusters
  /// instead of wrongly exonerating the other faults' cells. Fully passing
  /// partitions contribute nothing (with an intermittent defect a pass does
  /// not exonerate).
  UnionAnalysis analyzeUnion(std::span<const Partition> partitions,
                             const GroupVerdicts& verdicts) const;

 private:
  const ScanTopology* topology_;
};

}  // namespace scandiag

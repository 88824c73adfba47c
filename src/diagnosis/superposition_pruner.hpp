// Superposition-based candidate pruning (in the spirit of Bayraktaroglu &
// Orailoglu [7]; see DESIGN.md §5 item 3 for the exact relationship).
//
// Because the MISR is linear, the observed error signature of every group is
// the XOR of the (unknown) per-cell error signatures of the failing cells it
// contains. Group membership is the only structure we have, so candidates
// are partitioned into *atoms*: maximal sets of positions that share group
// membership in every partition. Each atom contributes one unknown — the
// XOR of its cells' signatures — and each failing group one linear equation.
// Gaussian elimination over GF(2) then identifies atoms whose aggregate
// signature is FORCED to zero in every solution of the system; such atoms
// carry no error signal consistent with the observations and are pruned.
//
// Soundness: the true failure assignment satisfies the system, so a pruned
// atom's true aggregate signature is zero. That can hide a failing cell only
// if two or more failing cells in one atom have XOR-cancelling signatures —
// probability ~2^-degree per pair, which is why Exact-mode pruning runs in a
// 32-bit side register (kPruneDegree, the widest primitive polynomial the
// tap table holds).
#pragma once

#include "bist/scan_topology.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/partition.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "diagnosis/session_engine.hpp"

namespace scandiag {

struct PruneStats {
  std::size_t atoms = 0;
  std::size_t prunedAtoms = 0;
  std::size_t prunedPositions = 0;
  bool consistent = true;  // false => aliasing detected, nothing pruned
};

class SuperpositionPruner {
 public:
  explicit SuperpositionPruner(const ScanTopology& topology) : topology_(&topology) {}

  /// Tightens `candidates` using the verdicts' error signatures (which must
  /// be present: SessionConfig::computeSignatures or MISR mode). Returns the
  /// pruned candidate set; `stats`, if non-null, receives diagnostics.
  /// Prepares the schedule per call — hot paths should use the
  /// PreparedPartitionSet overload.
  CandidateSet prune(const std::vector<Partition>& partitions, const GroupVerdicts& verdicts,
                     const CandidateSet& candidates, PruneStats* stats = nullptr) const;

  /// Hot-path overload: group membership comes from the prepared schedule's
  /// transposed table (built once per pipeline). Output is bit-identical to
  /// the std::vector<Partition> overload.
  CandidateSet prune(const PreparedPartitionSet& prepared, const GroupVerdicts& verdicts,
                     const CandidateSet& candidates, PruneStats* stats = nullptr) const;

  /// The pruning step on the selection axis alone: clears the positions of
  /// every forced-zero atom from `positions` and leaves cell expansion to the
  /// caller. Costs O(candidates x partitions) plus the elimination; nothing
  /// scales with the axis length. Atoms are numbered by sorting their
  /// membership rows, but the forced-zero set, consistency and every stats
  /// field depend only on the system's solution space, so the result is the
  /// same for any atom order.
  PruneStats prunePositions(const PreparedPartitionSet& prepared, const GroupVerdicts& verdicts,
                            BitVector& positions) const;

 private:
  const ScanTopology* topology_;
};

}  // namespace scandiag

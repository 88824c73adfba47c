// Prepared (pre-indexed) partition schedule for the per-fault hot path.
//
// A diagnosis run applies the same partition sequence to every fault, but the
// per-position group-index tables the session engine and the superposition
// pruner need used to be rebuilt per (fault × partition) — pure O(chainLength)
// allocation and fill on the path that runs 500+ times per DR experiment.
// PreparedPartitionSet computes every partition's groupTable() exactly once,
// at construction, and is immutable afterwards: it can be shared read-only
// across faults and across thread-pool workers with no synchronization
// (the same ownership rule as the topology and the good-machine data; see
// docs/ARCHITECTURE.md "Hot-path memory discipline").
//
// On top of the per-partition tables it builds the *batch layout* the batched
// MISR scorer (SessionEngine::run, docs/ARCHITECTURE.md §11) keys on: groups
// of all partitions are numbered globally (groupOffset(p) + g) and a
// transposed flat table stores, per shift position, the global group id the
// position belongs to in every partition — contiguously, so scoring a fault
// is one pass over its failing positions with a unit-stride inner loop over
// the schedule instead of a per-group membership scan per session.
//
// Construction also validates the schedule — groupTable() asserts that the
// groups of each partition are disjoint and cover every position, every
// partition must span the same selection axis, and the global group ids must
// fit the u32 cells of the transposed table — so a pipeline holding a
// PreparedPartitionSet never carries a malformed schedule, and every set
// carries the batch layout. (A schedule mixing lengths could never be scored
// anyway: every verdict row must match the topology's one length.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diagnosis/partition.hpp"

namespace scandiag {

class PreparedPartitionSet {
 public:
  PreparedPartitionSet() = default;

  /// Takes ownership of the schedule and builds one group table per
  /// partition (one O(chainLength) pass each, done once for all faults).
  /// Throws std::invalid_argument when the partitions span different
  /// lengths or hold more than 2^32 - 1 groups in total. An empty schedule
  /// is legal (the adaptive pipeline holds one).
  explicit PreparedPartitionSet(std::vector<Partition> partitions);

  std::size_t size() const { return partitions_.size(); }
  bool empty() const { return partitions_.empty(); }
  /// The selection-axis length every partition spans (0 when empty).
  std::size_t length() const { return length_; }

  const std::vector<Partition>& partitions() const { return partitions_; }
  const Partition& partition(std::size_t p) const { return partitions_[p]; }
  const Partition& operator[](std::size_t p) const { return partitions_[p]; }

  /// table[pos] = group index containing `pos` in partition `p`; identical to
  /// partitions()[p].groupTable() but computed once per schedule, not per call.
  const std::vector<std::size_t>& groupTable(std::size_t p) const { return tables_[p]; }

  // -- Batch layout (global group numbering + transposed position table). ---

  /// Total sessions of the schedule (sum of groupCount() over partitions).
  std::size_t totalGroups() const { return totalGroups_; }

  /// First global group id of partition `p`; global id = groupOffset(p) + g.
  std::size_t groupOffset(std::size_t p) const { return groupOffsets_[p]; }

  /// The `size()` global group ids position `pos` belongs to, one per
  /// partition, contiguous (transposed layout: one cache-friendly read per
  /// failing position covers the whole schedule).
  const std::uint32_t* groupsAtPosition(std::size_t pos) const {
    return posGroups_.data() + pos * partitions_.size();
  }

 private:
  std::vector<Partition> partitions_;
  std::vector<std::vector<std::size_t>> tables_;  // [partition][position]
  std::size_t length_ = 0;
  std::size_t totalGroups_ = 0;
  std::vector<std::size_t> groupOffsets_;  // [partition + 1]
  std::vector<std::uint32_t> posGroups_;   // [position * size() + partition]
};

}  // namespace scandiag

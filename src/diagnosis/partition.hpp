// Scan chain partition: a disjoint, covering family of groups over the
// selection axis (shift positions 0..L-1, see ScanTopology).
//
// Each group corresponds to one BIST session: during that session only the
// cells at the group's positions reach the compactor. Diagnosis quality comes
// entirely from how the groups of successive partitions overlap.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitvector.hpp"

namespace scandiag {

struct Partition {
  std::vector<BitVector> groups;  // each sized length(); disjoint; union covers

  std::size_t groupCount() const { return groups.size(); }
  std::size_t length() const { return groups.empty() ? 0 : groups[0].size(); }

  /// Group index containing `pos`.
  std::size_t groupOf(std::size_t pos) const;

  /// Per-position group index table (one pass; use for bulk lookups).
  std::vector<std::size_t> groupTable() const;

  /// Union of the groups whose bit is set in `failing` (one verdict row):
  /// every position a failing session keeps suspect.
  BitVector failingUnion(const BitVector& failing) const;

  /// Checks disjointness and coverage; throws std::logic_error on violation.
  void validate() const;
};

/// Abstract partition generator. next() yields partition 0, 1, 2, ... of a
/// scheme; generators are stateful because the hardware chains IVR seeds.
class PartitionScheme {
 public:
  virtual ~PartitionScheme() = default;
  virtual Partition next() = 0;
  virtual std::string name() const = 0;
};

/// First `count` partitions of a scheme.
std::vector<Partition> takePartitions(PartitionScheme& scheme, std::size_t count);

}  // namespace scandiag

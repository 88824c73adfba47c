// Diagnosis-time cost model.
//
// The dominant cost of partition-based diagnosis is re-applying the whole
// BIST pattern set once per (partition, group) session: each session is
// patterns x (chainLength shift cycles + 1 capture cycle), plus the unload of
// the last capture. The paper argues two-step's value partly through this
// lens (Fig. 5: fewer partitions to a target DR = proportionally less tester
// time); this model makes the accounting explicit and comparable across
// schemes, including the adaptive binary-search baseline whose session count
// is data-dependent.
#pragma once

#include <cstddef>
#include <cstdint>

namespace scandiag {

struct DiagnosisCost {
  std::size_t sessions = 0;
  std::uint64_t clockCycles = 0;
};

/// Cycles for one BIST session: per pattern, chainLength shift-in cycles
/// (which simultaneously shift out the previous capture) + 1 capture cycle,
/// plus a final chainLength-cycle unload of the last capture.
DiagnosisCost sessionCost(std::size_t numPatterns, std::size_t chainLength);

/// Full partition-based run: partitions x groups sessions.
DiagnosisCost partitionRunCost(std::size_t numPartitions, std::size_t groupsPerPartition,
                               std::size_t numPatterns, std::size_t chainLength);

}  // namespace scandiag

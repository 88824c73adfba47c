#include "diagnosis/cost_model.hpp"

namespace scandiag {

DiagnosisCost sessionCost(std::size_t numPatterns, std::size_t chainLength) {
  DiagnosisCost cost;
  cost.sessions = 1;
  cost.clockCycles = static_cast<std::uint64_t>(numPatterns) * (chainLength + 1) + chainLength;
  return cost;
}

DiagnosisCost partitionRunCost(std::size_t numPartitions, std::size_t groupsPerPartition,
                               std::size_t numPatterns, std::size_t chainLength) {
  const DiagnosisCost one = sessionCost(numPatterns, chainLength);
  DiagnosisCost total;
  total.sessions = numPartitions * groupsPerPartition;
  total.clockCycles = one.clockCycles * total.sessions;
  return total;
}

}  // namespace scandiag

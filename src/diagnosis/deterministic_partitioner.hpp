// Deterministic fixed-length interval partitioning — the baseline of
// Bayraktaroglu & Orailoglu [8], discussed in paper §2.1.
//
// Every group is an equal-length interval of ceil(L / b) positions; partition
// p rotates the interval boundaries by p * stride positions so successive
// partitions cut the chain at different places. The paper dismisses this
// scheme for hardware cost ("deterministic partitioning with fixed interval
// length requires expensive control logic") rather than resolution; having it
// as a software baseline lets bench_baselines quantify what the LFSR-random
// interval lengths of §2.2 give up, if anything.
#pragma once

#include "diagnosis/partition.hpp"

namespace scandiag {

class DeterministicIntervalPartitioner final : public PartitionScheme {
 public:
  DeterministicIntervalPartitioner(std::size_t chainLength, std::size_t groupCount);

  Partition next() override;
  std::string name() const override { return "deterministic-interval"; }

  std::size_t intervalLength() const { return intervalLength_; }

 private:
  std::size_t chainLength_;
  std::size_t groupCount_;
  std::size_t intervalLength_;
  std::size_t rotationStep_;
  std::size_t partitionIndex_ = 0;
};

}  // namespace scandiag

#include "diagnosis/deterministic_partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

/// Boundary rotation between successive partitions, as a fraction of the
/// interval length. A rational fraction like 1/2 revisits the same boundary
/// phases after a couple of partitions (gcd(step, length) phases exist); the
/// golden-ratio fraction makes the phase sequence near-equidistributed, which
/// is the strongest form of this baseline.
constexpr double kRotationFraction = 0.381966;

}  // namespace

DeterministicIntervalPartitioner::DeterministicIntervalPartitioner(std::size_t chainLength,
                                                                   std::size_t groupCount)
    : chainLength_(chainLength), groupCount_(groupCount) {
  SCANDIAG_REQUIRE(chainLength >= 1, "empty scan chain");
  SCANDIAG_REQUIRE(groupCount >= 1 && groupCount <= chainLength,
                   "group count must be in [1, chain length]");
  intervalLength_ = (chainLength + groupCount - 1) / groupCount;
  rotationStep_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(kRotationFraction * static_cast<double>(intervalLength_))));
}

Partition DeterministicIntervalPartitioner::next() {
  obs::PhaseScope phase(obs::Phase::PartitionGen);
  obs::count(obs::Counter::PartitionsGenerated);
  // Group of position pos = ((pos + offset) / intervalLength) mod groups:
  // equal intervals whose boundaries rotate by rotationStep per partition.
  // The first and last groups may wrap, matching [8]'s "boundary cases".
  const std::size_t offset = (partitionIndex_ * rotationStep_) % chainLength_;
  ++partitionIndex_;
  Partition p;
  p.groups.assign(groupCount_, BitVector(chainLength_));
  for (std::size_t pos = 0; pos < chainLength_; ++pos) {
    const std::size_t g = ((pos + offset) / intervalLength_) % groupCount_;
    p.groups[g].set(pos);
  }
  return p;
}

}  // namespace scandiag

// Interval-based partitioning (paper §2.2) — step 1 of the contribution.
//
// Each group of a partition is an *interval* of consecutive shift positions;
// interval lengths are read from rlen LFSR stages (one LFSR step per interval
// boundary), and the IVR seed is pre-computed so the configured number of
// intervals covers the chain with no empty group (see interval_seed_search).
// Clustered failing cells — one fault cone mapping to a short run of the
// chain — land in one or two intervals, so a single partition already
// exonerates most of the chain.
#pragma once

#include <cstdint>

#include "bist/interval_seed_search.hpp"
#include "diagnosis/partition.hpp"

namespace scandiag {

/// Seed-search starting point of the BIST controller's interval step.
inline constexpr std::uint64_t kIntervalStartSeed = 0xBEEF;

/// The defaults are the selector hardware's (paper Fig. 1): the degree-16
/// primitive selection LFSR, the automatic field width and
/// kIntervalStartSeed. Every scheme builds its interval step from them.
struct IntervalPartitionerConfig {
  LfsrConfig lfsr{/*degree=*/16, /*tapMask=*/0};
  /// Interval-length field width; 0 = defaultIntervalBits(chain, groups).
  unsigned rlen = 0;
  /// Seed-search starting point; successive partitions take successive
  /// covering seeds.
  std::uint64_t startSeed = kIntervalStartSeed;
};

class IntervalPartitioner final : public PartitionScheme {
 public:
  IntervalPartitioner(const IntervalPartitionerConfig& config, std::size_t chainLength,
                      std::size_t groupCount);

  Partition next() override;
  std::string name() const override { return "interval-based"; }

  unsigned intervalBits() const { return rlen_; }
  /// Seeds consumed so far, in partition order.
  const std::vector<IntervalSeedResult>& usedSeeds() const { return used_; }

  /// Builds the partition induced by explicit interval lengths (sum == chain
  /// length). Exposed for tests and for the hardware-equivalence check.
  static Partition fromLengths(const std::vector<std::size_t>& lengths,
                               std::size_t chainLength);

 private:
  LfsrConfig config_;
  std::size_t chainLength_;
  std::size_t groupCount_;
  unsigned rlen_;
  std::uint64_t nextSeed_;
  std::vector<IntervalSeedResult> used_;
};

}  // namespace scandiag

// Random-selection partitioning (Rajski & Tyszer [5]) — the baseline scheme.
//
// Every shift position gets an r-bit label read from the selection LFSR;
// group g of the partition is the set of positions labelled g, so the 2^r
// groups are non-overlapping and cover the chain by construction. For the
// next partition the IVR is reloaded with the LFSR's running state, exactly
// as the hardware does, so the generator reproduces the silicon's partition
// sequence bit for bit (verified against SelectorHardware in the tests).
#pragma once

#include <cstdint>

#include "bist/lfsr.hpp"
#include "diagnosis/partition.hpp"

namespace scandiag {

/// IVR seed of the BIST controller's random-selection step.
inline constexpr std::uint64_t kRandomSelectionSeed = 0xACE1;

/// The defaults are the selector hardware's (paper Fig. 1): the degree-16
/// primitive selection LFSR loaded with kRandomSelectionSeed. Every scheme
/// builds its random step from them.
struct RandomSelectionConfig {
  LfsrConfig lfsr{/*degree=*/16, /*tapMask=*/0};
  std::uint64_t seed = kRandomSelectionSeed;
};

class RandomSelectionPartitioner final : public PartitionScheme {
 public:
  /// groupCount must be a power of two (the label is a bit field).
  RandomSelectionPartitioner(const RandomSelectionConfig& config, std::size_t chainLength,
                             std::size_t groupCount);

  Partition next() override;
  std::string name() const override { return "random-selection"; }

  unsigned labelWidth() const { return r_; }
  std::uint64_t currentIvr() const { return ivr_; }

 private:
  LfsrConfig config_;
  std::size_t chainLength_;
  std::size_t groupCount_;
  unsigned r_;
  std::uint64_t ivr_;
};

}  // namespace scandiag

// Two-step partitioning — the paper's contribution (§2.2, §3).
//
// Step 1: a small number of interval-based partitions give coarse-grained
// resolution fast (a clustered fault cone is confined to a few consecutive
// intervals). Step 2: the remaining partitions come from random selection,
// whose fine-grained randomness keeps shrinking the candidate set long after
// intervals stop helping (two cells at opposite chain ends can never share an
// interval but often share a random group). The hardware cost over [5] is two
// counters; switching step is "simply disabling Shift Counter 2 and Test
// Counter 2 or bypassing them".
#pragma once

#include <memory>

#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/random_selection_partitioner.hpp"

namespace scandiag {

enum class SchemeKind {
  IntervalBased,
  RandomSelection,
  TwoStep,
  /// Fixed-length rotated intervals (Bayraktaroglu & Orailoglu [8] baseline).
  DeterministicInterval,
  /// Online entropy-greedy scheduling: the next partition is chosen per fault
  /// from a deterministic candidate pool after observing each verdict row
  /// (AdaptivePlanner; docs/ARCHITECTURE.md §14). Has no fixed schedule, so
  /// makeScheme()/buildPartitions() reject it.
  Adaptive,
};

std::string schemeName(SchemeKind kind);

/// Inverse of schemeName, also accepting the CLI short names
/// (interval|random|two-step|deterministic|adaptive). Throws
/// std::invalid_argument with the accepted spellings on anything else.
SchemeKind parseSchemeKind(const std::string& name);

/// Test hook for SchemeKind::Adaptive. The pool itself is fixed: two interval
/// candidates and three random-selection seed streams at the configured group
/// count, under a budget of numPartitions * groupsPerPartition sessions (see
/// adaptive_planner.hpp), so two runs with equal configs choose identical
/// schedules for identical verdicts, at any thread count.
struct AdaptivePoolConfig {
  /// Take the pool in index order instead of by score, with the pool reduced
  /// to the fixed TwoStep schedule — reproduces SchemeKind::TwoStep
  /// bit-for-bit (parity tests).
  bool forceFixedOrder = false;
};

/// The selector's LFSR, its taps, field width and both seeds are fixed
/// hardware (paper Fig. 1): every scheme builds its steps from the default
/// IntervalPartitionerConfig and RandomSelectionConfig. A fixed schedule —
/// and every tester log replayed against it — therefore follows from
/// (scheme, partitions, groups, chain length) plus the knobs below.
struct SchemeConfig {
  /// Partitions taken from the interval step before switching to random
  /// selection (the paper uses 1 in its simulations).
  std::size_t intervalPartitions = 1;
  /// Knobs for SchemeKind::Adaptive (ignored by the fixed schemes).
  AdaptivePoolConfig adaptive{};
};

class TwoStepScheme final : public PartitionScheme {
 public:
  TwoStepScheme(const SchemeConfig& config, std::size_t chainLength, std::size_t groupCount);

  Partition next() override;
  std::string name() const override { return "two-step"; }

 private:
  std::size_t intervalRemaining_;
  IntervalPartitioner interval_;
  RandomSelectionPartitioner random_;
};

/// Factory covering all three schemes of the paper's comparison.
std::unique_ptr<PartitionScheme> makeScheme(SchemeKind kind, const SchemeConfig& config,
                                            std::size_t chainLength, std::size_t groupCount);

}  // namespace scandiag

#include "diagnosis/two_step_scheme.hpp"

#include "diagnosis/deterministic_partitioner.hpp"

#include "common/assert.hpp"

namespace scandiag {

std::string schemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::IntervalBased:
      return "interval-based";
    case SchemeKind::RandomSelection:
      return "random-selection";
    case SchemeKind::TwoStep:
      return "two-step";
    case SchemeKind::DeterministicInterval:
      return "deterministic-interval";
    case SchemeKind::Adaptive:
      return "adaptive";
  }
  throw std::logic_error("unknown SchemeKind");
}

SchemeKind parseSchemeKind(const std::string& name) {
  if (name == "interval" || name == "interval-based") return SchemeKind::IntervalBased;
  if (name == "random" || name == "random-selection") return SchemeKind::RandomSelection;
  if (name == "two-step") return SchemeKind::TwoStep;
  if (name == "deterministic" || name == "deterministic-interval")
    return SchemeKind::DeterministicInterval;
  if (name == "adaptive") return SchemeKind::Adaptive;
  throw std::invalid_argument("unknown scheme '" + name +
                              "' (interval|random|two-step|deterministic|adaptive)");
}

TwoStepScheme::TwoStepScheme(const SchemeConfig& config, std::size_t chainLength,
                             std::size_t groupCount)
    : intervalRemaining_(config.intervalPartitions),
      interval_(IntervalPartitionerConfig{}, chainLength, groupCount),
      random_(RandomSelectionConfig{}, chainLength, groupCount) {}

Partition TwoStepScheme::next() {
  if (intervalRemaining_ > 0) {
    --intervalRemaining_;
    return interval_.next();
  }
  return random_.next();
}

std::unique_ptr<PartitionScheme> makeScheme(SchemeKind kind, const SchemeConfig& config,
                                            std::size_t chainLength, std::size_t groupCount) {
  switch (kind) {
    case SchemeKind::IntervalBased:
      return std::make_unique<IntervalPartitioner>(IntervalPartitionerConfig{}, chainLength,
                                                   groupCount);
    case SchemeKind::RandomSelection:
      return std::make_unique<RandomSelectionPartitioner>(RandomSelectionConfig{}, chainLength,
                                                          groupCount);
    case SchemeKind::TwoStep:
      return std::make_unique<TwoStepScheme>(config, chainLength, groupCount);
    case SchemeKind::DeterministicInterval:
      return std::make_unique<DeterministicIntervalPartitioner>(chainLength, groupCount);
    case SchemeKind::Adaptive:
      throw std::invalid_argument(
          "adaptive has no fixed partition sequence: partitions are chosen online per fault "
          "(use --scheme adaptive on dr/soc-dr, or AdaptivePlanner directly)");
  }
  throw std::logic_error("unknown SchemeKind");
}

}  // namespace scandiag

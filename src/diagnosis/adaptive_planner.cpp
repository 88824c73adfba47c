#include "diagnosis/adaptive_planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

/// Score bonus (bits/session) for interval candidates while no verdict has
/// been observed yet. The uniform-survivor model cannot see that fault cones
/// cluster on the chain (the paper's §2.2 argument for step 1), so the blind
/// first pick gets a thumb on the interval side of the scale.
constexpr double kIntervalPrior = 0.1;

/// Assumed failing-position spread before the first observed verdict row
/// (afterwards the max observed failing-group count takes over).
constexpr std::size_t kSpreadPrior = 2;

/// Interval candidates in the pool: successive covering seeds, the same rule
/// as the fixed interval scheme.
constexpr std::size_t kPoolIntervalCandidates = 2;

/// Random-selection seed streams in the pool (see poolSeed).
constexpr std::size_t kPoolSeedStreams = 3;

/// Seed of random-selection stream k: the selector's seed advanced by k odd
/// strides, masked to the LFSR width and bumped off the stuck all-zero state.
/// Stream 0 is kRandomSelectionSeed itself — identical to the fixed schemes'
/// stream.
std::uint64_t poolSeed(std::size_t k, unsigned degree) {
  const std::uint64_t mask = degree >= 64 ? ~0ULL : ((std::uint64_t{1} << degree) - 1);
  const std::uint64_t s =
      (kRandomSelectionSeed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k)) & mask;
  return s == 0 ? 1 : s;
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(const ScanTopology& topology, const DiagnosisConfig& config)
    : topology_(&topology), config_(config), engine_(topology, sessionConfigFor(config)) {
  if (config.scheme != SchemeKind::Adaptive) {
    throw std::invalid_argument("AdaptivePlanner requires scheme == adaptive");
  }
  if (config.pruning) {
    throw std::invalid_argument(
        "superposition pruning is incompatible with the adaptive scheme: pruning needs the "
        "XOR-signature algebra of a schedule fixed up front");
  }
  const std::size_t chainLength = topology.maxChainLength();
  SCANDIAG_REQUIRE(chainLength >= 1, "empty selection axis");

  // Equal tester time to the fixed schedule the planner replaces.
  budget_ = config.numPartitions * config.groupsPerPartition;
  SCANDIAG_REQUIRE(budget_ >= 1, "adaptive session budget must be positive");

  std::vector<Partition> candidates;
  if (config.schemeConfig.adaptive.forceFixedOrder) {
    // Parity mode: the pool *is* the fixed TwoStep schedule, taken in order.
    auto scheme = makeScheme(SchemeKind::TwoStep, config.schemeConfig, chainLength,
                             config.groupsPerPartition);
    candidates = takePartitions(*scheme, config.numPartitions);
    kinds_.assign(candidates.size(), PoolKind::Random);
    for (std::size_t p = 0; p < std::min(config.schemeConfig.intervalPartitions, kinds_.size());
         ++p) {
      kinds_[p] = PoolKind::Interval;
    }
  } else {
    // The group count, clamped to the chain and normalized to a power of two
    // (random-selection labels are bit fields) — the same shape
    // recommendGroupCount() produces.
    const std::size_t groups = std::bit_floor(
        std::max<std::size_t>(std::min(config.groupsPerPartition, chainLength), 1));
    // Enough random candidates per stream that the pool never runs dry before
    // the budget does, whatever the scorer picks.
    const std::size_t maxSteps = std::max<std::size_t>(budget_ / groups, 1);
    IntervalPartitioner intervals(IntervalPartitionerConfig{}, chainLength, groups);
    for (std::size_t i = 0; i < kPoolIntervalCandidates; ++i) {
      candidates.push_back(intervals.next());
      kinds_.push_back(PoolKind::Interval);
    }
    for (std::size_t k = 0; k < kPoolSeedStreams; ++k) {
      RandomSelectionConfig stream;
      stream.seed = poolSeed(k, stream.lfsr.degree);
      RandomSelectionPartitioner randoms(stream, chainLength, groups);
      for (std::size_t i = 0; i < maxSteps; ++i) {
        candidates.push_back(randoms.next());
        kinds_.push_back(PoolKind::Random);
      }
    }
  }
  pool_ = PreparedPartitionSet(std::move(candidates));
}

double AdaptivePlanner::scoreCandidate(std::size_t index, const std::vector<std::uint32_t>& counts,
                                       std::size_t n, std::size_t spread,
                                       bool observedAnything) const {
  const std::size_t off = pool_.groupOffset(index);
  const std::size_t b = pool_.partition(index).groupCount();
  const double dn = static_cast<double>(n);
  // Interval groups are contiguous runs of shift positions, and real
  // multi-cell faults cluster in adjacent cells (the paper's §2.2 argument
  // for putting the interval step first): a clustered burst lands in one
  // interval group, not `spread` independent ones. Interval candidates are
  // therefore scored with an effective spread of 1 — the uniform model below
  // would otherwise punish their (often unbalanced) group sizes with a
  // per-position independence assumption that contiguity refutes.
  const std::size_t effSpread = kinds_[index] == PoolKind::Interval ? 1 : spread;
  // Expected survivors: group j (c_j of the n surviving positions) stays in
  // the intersection iff it holds a failing position; with `effSpread`
  // failing positions drawn uniformly from S that happens with
  // 1 - (1 - c_j/n)^effSpread. The power is expanded by repeated
  // multiplication — exact IEEE ops, so the score (and every schedule
  // decision) is bit-reproducible.
  double expected = 0.0;
  for (std::size_t g = 0; g < b; ++g) {
    const double c = static_cast<double>(counts[off + g]);
    if (c == 0.0) continue;
    const double miss = 1.0 - c / dn;
    double staysEmpty = 1.0;
    for (std::size_t w = 0; w < effSpread; ++w) staysEmpty *= miss;
    expected += c * (1.0 - staysEmpty);
  }
  const double gain = std::log2(dn) - std::log2(std::max(expected, 1.0));
  if (gain <= 1e-12) return 0.0;  // provably cannot shrink S (one group holds all of it)
  double score = gain / static_cast<double>(b);
  if (!observedAnything && kinds_[index] == PoolKind::Interval) {
    // Blind first pick: the uniform model cannot see that fault cones cluster
    // on the chain (paper §2.2) — intervals get the clustering prior.
    score += kIntervalPrior;
  }
  return score;
}

AdaptiveOutcome AdaptivePlanner::run(const FaultResponse& response,
                                     const RowObserver& observer) const {
  const bool forceFixedOrder = config_.schemeConfig.adaptive.forceFixedOrder;
  const std::size_t length = topology_->maxChainLength();
  const std::size_t poolSize = pool_.size();

  AdaptiveOutcome out;
  BitVector survivors(length, true);
  std::vector<char> used(poolSize, 0);
  std::vector<std::uint32_t> counts(pool_.totalGroups());
  std::size_t observedSpread = 0;  // max failing-group count seen; 0 = nothing yet
  std::uint64_t pruned = 0;

  for (;;) {
    const std::size_t before = survivors.count();
    std::size_t pick = BitVector::npos;
    if (forceFixedOrder) {
      // Parity mode: the fixed schedule, in order, while the budget lasts.
      const std::size_t next = out.chosen.size();
      if (next >= poolSize) break;
      if (out.sessionsUsed + pool_.partition(next).groupCount() > budget_) break;
      pick = next;
    } else {
      if (before <= 1) break;  // partitions act on positions; nothing left to split
      // One pass over S scores every candidate: the transposed batch layout
      // gives each position's group in every pool partition contiguously.
      std::fill(counts.begin(), counts.end(), 0);
      for (std::size_t pos = survivors.findFirst(); pos != BitVector::npos;
           pos = survivors.findNext(pos)) {
        const std::uint32_t* groups = pool_.groupsAtPosition(pos);
        for (std::size_t j = 0; j < poolSize; ++j) ++counts[groups[j]];
      }
      const std::size_t spread = observedSpread > 0 ? observedSpread : kSpreadPrior;
      double bestScore = 0.0;
      for (std::size_t i = 0; i < poolSize; ++i) {
        if (used[i]) continue;
        if (out.sessionsUsed + pool_.partition(i).groupCount() > budget_) continue;
        const double score = scoreCandidate(i, counts, before, spread, observedSpread > 0);
        if (score > bestScore) {  // ties resolve to the lowest pool index
          bestScore = score;
          pick = i;
        }
      }
      if (pick == BitVector::npos) break;  // nothing affordable can shrink S: stop, save budget
    }

    used[pick] = 1;
    PartitionVerdictRow row = engine_.runPartition(pool_, pick, response);
    if (observer) observer(out.chosen.size(), pick, row);
    observedSpread = std::max<std::size_t>(observedSpread, std::max<std::size_t>(row.failing.count(), 1));

    const Partition& partition = pool_.partition(pick);
    survivors &= partition.failingUnion(row.failing);

    const std::size_t after = survivors.count();
    pruned += static_cast<std::uint64_t>(before - after);
    out.sessionsUsed += partition.groupCount();
    out.chosen.push_back(pick);
    out.verdicts.failing.push_back(std::move(row.failing));
    out.steps.push_back(
        AdaptiveStepTrace{out.sessionsUsed, topology_->expandPositions(survivors).count()});
  }

  if (pruned > 0) obs::count(obs::Counter::AdaptiveCandidatesPruned, pruned);
  if (out.sessionsUsed < budget_) {
    obs::count(obs::Counter::AdaptiveSessionsSaved,
               static_cast<std::uint64_t>(budget_ - out.sessionsUsed));
  }
  out.candidates.cells = topology_->expandPositions(survivors);
  out.candidates.positions = std::move(survivors);
  return out;
}

std::vector<Partition> AdaptivePlanner::schedule(const AdaptiveOutcome& outcome) const {
  std::vector<Partition> partitions;
  partitions.reserve(outcome.chosen.size());
  for (const std::size_t index : outcome.chosen) partitions.push_back(pool_.partition(index));
  return partitions;
}

}  // namespace scandiag

#include "inject/verdict_corruptor.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace scandiag {

namespace {

/// Stream seed for (config seed, fault, attempt, partition): distinct odd
/// multipliers keep the four coordinates from cancelling; Xoroshiro128's
/// splitmix64 expansion does the real mixing.
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t faultKey, std::size_t attempt,
                         std::size_t partition) {
  std::uint64_t s = seed;
  s ^= faultKey * 0x9e3779b97f4a7c15ULL;
  s ^= static_cast<std::uint64_t>(attempt) * 0xc2b2ae3d27d4eb4fULL;
  s ^= static_cast<std::uint64_t>(partition) * 0x165667b19e3779f9ULL;
  return s;
}

void checkRate(double rate, const char* name) {
  SCANDIAG_REQUIRE(rate >= 0.0 && rate <= 1.0, std::string(name) + " must be in [0, 1]");
}

}  // namespace

VerdictCorruptor::VerdictCorruptor(const NoiseConfig& config) : config_(config) {
  checkRate(config.flipRate, "flipRate");
  checkRate(config.intermittentRate, "intermittentRate");
  checkRate(config.xMaskRate, "xMaskRate");
  checkRate(config.aliasRate, "aliasRate");
}

CorruptionTrace VerdictCorruptor::corruptRow(PartitionVerdictRow& row,
                                             const Partition& partition,
                                             std::size_t partitionIndex,
                                             const BitVector& failingPositions,
                                             std::uint64_t faultKey,
                                             std::size_t attempt) const {
  CorruptionTrace trace;
  if (!config_.enabled()) return trace;
  SCANDIAG_REQUIRE(row.failing.size() == partition.groupCount(),
                   "verdict row does not match partition");

  Xoroshiro128 rng(streamSeed(config_.seed, faultKey, attempt, partitionIndex));
  const std::size_t groups = partition.groupCount();
  const bool hasSig = !row.errorSig.empty();

  auto readPass = [&](std::size_t g, CorruptionEvent::Kind kind) {
    row.failing.reset(g);
    if (hasSig) row.errorSig[g] = 0;
    trace.events.push_back({kind, partitionIndex, g, false});
  };

  // 1. X-masking: a random position subset drops out of capture; a failing
  //    group loses its verdict iff all its failing positions are masked.
  if (config_.xMaskRate > 0.0) {
    BitVector unmasked(partition.length(), true);
    for (std::size_t pos = 0; pos < partition.length(); ++pos) {
      if (rng.nextDouble() < config_.xMaskRate) unmasked.reset(pos);
    }
    const BitVector observable = failingPositions & unmasked;
    for (std::size_t g = 0; g < groups; ++g) {
      if (row.failing.test(g) && !partition.groups[g].intersects(observable)) {
        readPass(g, CorruptionEvent::Kind::XMask);
      }
    }
  }

  // 2. Intermittency: a failing session's error stream re-draws empty.
  if (config_.intermittentRate > 0.0) {
    for (std::size_t g = 0; g < groups; ++g) {
      if (row.failing.test(g) && rng.nextDouble() < config_.intermittentRate) {
        readPass(g, CorruptionEvent::Kind::Intermittent);
      }
    }
  }

  // 3. Forced MISR aliasing: nonzero error stream, signature 0.
  if (config_.aliasRate > 0.0) {
    for (std::size_t g = 0; g < groups; ++g) {
      if (row.failing.test(g) && rng.nextDouble() < config_.aliasRate) {
        readPass(g, CorruptionEvent::Kind::Aliasing);
      }
    }
  }

  // 4. Raw verdict flips, both directions (logged last so flips can undo the
  //    models above, exactly as a corrupted log line would).
  if (config_.flipRate > 0.0) {
    for (std::size_t g = 0; g < groups; ++g) {
      if (rng.nextDouble() < config_.flipRate) {
        const bool nowFailing = !row.failing.test(g);
        row.failing.set(g, nowFailing);
        if (hasSig) row.errorSig[g] = nowFailing ? (rng.next() | 1) : 0;
        trace.events.push_back(
            {CorruptionEvent::Kind::VerdictFlip, partitionIndex, g, nowFailing});
      }
    }
  }

  return trace;
}

CorruptionTrace VerdictCorruptor::corrupt(GroupVerdicts& verdicts,
                                          const std::vector<Partition>& partitions,
                                          const BitVector& failingPositions,
                                          std::uint64_t faultKey, std::size_t attempt) const {
  CorruptionTrace trace;
  if (!config_.enabled()) return trace;
  SCANDIAG_REQUIRE(verdicts.failing.size() == partitions.size(),
                   "verdicts do not match partitions");

  for (std::size_t p = 0; p < partitions.size(); ++p) {
    PartitionVerdictRow row;
    row.failing = std::move(verdicts.failing[p]);
    if (verdicts.hasSignatures) row.errorSig = std::move(verdicts.errorSig[p]);
    CorruptionTrace rowTrace =
        corruptRow(row, partitions[p], p, failingPositions, faultKey, attempt);
    verdicts.failing[p] = std::move(row.failing);
    if (verdicts.hasSignatures) verdicts.errorSig[p] = std::move(row.errorSig);
    trace.events.insert(trace.events.end(), rowTrace.events.begin(), rowTrace.events.end());
  }
  return trace;
}

}  // namespace scandiag

// Deterministic error injection: the "noisy tester" between SessionEngine
// and the diagnosers.
//
// The paper's DR tables assume every per-group session verdict is correct.
// Silicon testers are not that kind: MISR aliasing compacts a nonzero error
// stream to signature 0, intermittent faults fire in one session but not its
// sibling, X-states get masked out of capture, and raw pass/fail bits get
// flipped by marginal timing or corrupted logs. VerdictCorruptor perturbs a
// GroupVerdicts with exactly those four noise models, each at an independent
// configurable rate, and records every event it injected so tests and
// benches can compare diagnosis output against the known injection.
//
// Reproducibility contract: the corruption applied to partition p of fault
// `faultKey` on attempt `a` is a pure function of (seed, faultKey, a, p) —
// independent of thread count, evaluation order, and the other partitions.
// A noisy run is therefore exactly replayable from its seed, and a retry
// (attempt >= 1) draws a fresh independent stream, as a real re-run would.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "diagnosis/partition.hpp"
#include "diagnosis/session_engine.hpp"

namespace scandiag {

struct NoiseConfig {
  /// Raw verdict flip (pass <-> fail) per session.
  double flipRate = 0.0;
  /// Chance a failing session reads pass because the fault's error stream
  /// re-drew empty in that session (intermittent fault; fail -> pass only —
  /// a passing group holds no failing cell, so a re-draw cannot fail it).
  double intermittentRate = 0.0;
  /// Per-position chance of X-masking: a failing session whose failing
  /// positions are all masked reads pass.
  double xMaskRate = 0.0;
  /// Chance a failing session's error stream aliases in the MISR (signature
  /// forced to 0, verdict reads pass). Compare misrAliasingProbability().
  double aliasRate = 0.0;
  std::uint64_t seed = 0x7E57ED;

  bool enabled() const {
    return flipRate > 0.0 || intermittentRate > 0.0 || xMaskRate > 0.0 || aliasRate > 0.0;
  }
};

struct CorruptionEvent {
  enum class Kind { VerdictFlip, Intermittent, XMask, Aliasing };
  Kind kind;
  std::size_t partition = 0;
  std::size_t group = 0;
  /// Verdict after the event (false = now reads pass).
  bool nowFailing = false;
};

struct CorruptionTrace {
  std::vector<CorruptionEvent> events;

  bool any() const { return !events.empty(); }
  std::size_t count() const { return events.size(); }
};

class VerdictCorruptor {
 public:
  explicit VerdictCorruptor(const NoiseConfig& config);

  const NoiseConfig& config() const { return config_; }

  /// Perturbs every partition row of `verdicts` in place (no-op when the
  /// config has all rates zero — the zero-noise path stays bit-identical).
  /// `failingPositions` is the ground-truth collapse of the fault's failing
  /// cells (drives the X-masking model). `attempt` 0 is the first run;
  /// retries pass 1, 2, ... for independent streams.
  CorruptionTrace corrupt(GroupVerdicts& verdicts, const std::vector<Partition>& partitions,
                          const BitVector& failingPositions, std::uint64_t faultKey,
                          std::size_t attempt = 0) const;

  /// Single-partition variant for session re-runs; `partitionIndex` selects
  /// the same per-partition stream corrupt() would use.
  CorruptionTrace corruptRow(PartitionVerdictRow& row, const Partition& partition,
                             std::size_t partitionIndex, const BitVector& failingPositions,
                             std::uint64_t faultKey, std::size_t attempt) const;

 private:
  NoiseConfig config_;
};

}  // namespace scandiag

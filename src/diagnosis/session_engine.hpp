// BIST session emulation: per-group pass/fail verdicts and error signatures.
//
// For a partition of b groups the tester runs b sessions; in session g only
// the cells of group g reach the MISR. Because the applied patterns are
// identical in every session, the captured data never changes — only the
// masking does — so instead of re-simulating the circuit per session we
// derive every verdict from the fault's per-cell error streams:
//
//  * Exact mode ("no aliasing"): a group fails iff some selected cell has at
//    least one error bit. This matches comparing full response streams and is
//    the paper's working assumption for the DR tables.
//  * MISR mode: a group's 16-bit (configurable) error signature is computed
//    through the GF(2)-linear MISR model; the group fails iff the signature
//    is nonzero. Aliasing (a nonzero error stream compacting to signature 0)
//    becomes possible, exactly as in silicon (bench_ablation_aliasing).
//
// Error signatures are also the input to the superposition pruner; in exact
// mode they are computed on the side in a kPruneDegree-bit register so pruning
// stays available without injecting aliasing into the verdicts. Both
// registers use primitive taps. Whenever signatures are needed the
// constructor builds the factored MisrLinearModel (O(chain length · degree)
// words, bist/misr.hpp); every path computes a cell's signature through it,
// and the engine is immutable afterwards.
//
// Two scorers produce these verdicts, one per role:
//
//  * **Batched** (run, the hot path): MISR linearity means a session's error
//    signature is the XOR of its cells' individual error signatures, and the
//    group-membership structure is fixed per schedule — so ALL groups of ALL
//    partitions are scored in one pass over the fault's failing cells
//    against the PreparedPartitionSet's transposed position→global-group
//    table, one XOR (or one bit-set) per (cell, partition). No per-group
//    membership scan ever runs. Every prepared set carries that table, so
//    there is no other path. See docs/ARCHITECTURE.md §11.
//  * **Reference** (runReference, and runPartition for one partition): the
//    literal one-session-at-a-time evaluation (per-group intersects /
//    per-partition signature bucketing). It is the parity oracle —
//    tests/diagnosis/batched_parity_test holds the two bit-identical across
//    schemes, circuits, thread counts, pruning, and noise — and
//    runPartition is the unit the recovery layer re-runs. The bare-schedule
//    conveniences prepare their partitions and take this path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bist/misr.hpp"
#include "bist/space_compactor.hpp"
#include "bist/scan_topology.hpp"
#include "diagnosis/partition.hpp"
#include "diagnosis/prepared_partitions.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

enum class SignatureMode {
  Exact,  // group fails iff any selected error bit
  Misr,   // group fails iff MISR error signature != 0
};

/// Width of the side register Exact-mode pruning signatures are computed in:
/// the widest the primitive-polynomial table covers. It takes one scan-out
/// line per chain, so pruning runs on at most kPruneDegree chains.
inline constexpr unsigned kPruneDegree = 32;

struct SessionConfig {
  SignatureMode mode = SignatureMode::Exact;
  std::size_t numPatterns = 128;
  /// Verdict MISR width (mode == Misr), primitive taps.
  unsigned misrDegree = 16;
  /// Compute per-group error signatures for the superposition pruner.
  bool computeSignatures = false;
  /// Optional space compactor between the scan-out lines and the MISR (must
  /// outlive the engine). Null = one MISR input per chain.
  const SpaceCompactor* compactor = nullptr;
};

struct GroupVerdicts {
  /// failing[p].test(g): group g of partition p failed.
  std::vector<BitVector> failing;
  /// errorSig[p][g]: group error signature (present iff hasSignatures).
  std::vector<std::vector<std::uint64_t>> errorSig;
  bool hasSignatures = false;
  unsigned signatureDegree = 0;
};

/// One partition's worth of session results (the retry granularity: a tester
/// re-run repeats the b sessions of one partition, not the whole schedule).
struct PartitionVerdictRow {
  BitVector failing;                    // failing.test(g): group g failed
  std::vector<std::uint64_t> errorSig;  // empty unless signatures are computed
};

/// Reusable buffers for the batched scorer. One lives on each thread-pool
/// worker's stack for a whole chunk of faults (DiagnosisPipeline::evaluate),
/// so the steady state allocates nothing per fault. Never shared across
/// threads.
struct SessionBatchScratch {
  BitVector failingPositions;
  std::vector<std::size_t> cellPos;
  std::vector<std::uint64_t> cellSig;
  /// Flat per-global-group scoreboards (PreparedPartitionSet numbering).
  BitVector groupFail;
  std::vector<std::uint64_t> flatSig;
};

class SessionEngine {
 public:
  SessionEngine(const ScanTopology& topology, const SessionConfig& config);

  const ScanTopology& topology() const { return *topology_; }
  const SessionConfig& config() const { return config_; }

  /// The batched scorer: every group of every partition in one pass over
  /// the fault's failing cells. `scratch` (optional) reuses buffers across
  /// calls.
  GroupVerdicts run(const PreparedPartitionSet& prepared, const FaultResponse& response,
                    SessionBatchScratch* scratch = nullptr) const;

  /// Per-session reference scorer over a prepared schedule — the parity
  /// oracle run() is tested against.
  GroupVerdicts runReference(const PreparedPartitionSet& prepared,
                             const FaultResponse& response) const;

  /// Convenience overload for callers holding a bare schedule (tests,
  /// benches, one-off diagnoses): prepares it for this call and runs the
  /// reference scorer.
  GroupVerdicts run(const std::vector<Partition>& partitions,
                    const FaultResponse& response) const;

  /// Re-runs the sessions of partition `index` (same patterns, same capture
  /// data — on a noiseless tester this reproduces run()'s row for that
  /// partition bit-for-bit). This is the unit the recovery layer re-executes
  /// when a session verdict is suspect; always the per-session reference
  /// path.
  PartitionVerdictRow runPartition(const PreparedPartitionSet& prepared, std::size_t index,
                                   const FaultResponse& response) const;

  /// Bare-partition runPartition: prepares it for this call.
  PartitionVerdictRow runPartition(const Partition& partition,
                                   const FaultResponse& response) const;

  /// Per-cell error signature of one failing cell (its bit of pattern t
  /// enters at cycle t * maxChainLength + position) — the one signature
  /// function of the batched, reference and retry paths. Requires a
  /// signature mode. Exposed for tests.
  std::uint64_t cellErrorSignature(std::size_t cell, const BitVector& errorStream) const;

 private:
  void requireMatchingLength(const PreparedPartitionSet& prepared) const;
  void prepareCells(const FaultResponse& response, bool needSignatures,
                    BitVector& failingPositions, std::vector<std::size_t>& cellPos,
                    std::vector<std::uint64_t>& cellSig) const;
  PartitionVerdictRow computeRow(const PreparedPartitionSet& prepared, std::size_t index,
                                 const BitVector& failingPositions,
                                 const std::vector<std::size_t>& cellPos,
                                 const std::vector<std::uint64_t>& cellSig,
                                 bool needSignatures) const;

  const ScanTopology* topology_;
  SessionConfig config_;
  // Built in the constructor iff signatures are computed (MISR mode or
  // computeSignatures); immutable afterwards, so pool workers share it
  // read-only.
  std::optional<MisrLinearModel> model_;
};

}  // namespace scandiag

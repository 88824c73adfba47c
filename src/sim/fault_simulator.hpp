// Stuck-at fault simulation for full-scan scan-BIST.
//
// Test protocol per pattern (STUMPS-style): the PRPG loads a pseudorandom
// state into every scan cell and drives pseudorandom values on the primary
// inputs; the circuit runs one functional capture cycle; each DFF captures
// its D value, which is then shifted out through the response compactor.
// Consequently every pattern is an independent combinational evaluation, and
// a fault's entire observable effect on the scan side is the set of (cell,
// pattern) pairs whose captured value differs from the fault-free capture.
//
// FaultResponse records exactly that: the failing cells and, per failing
// cell, its pattern-indexed error stream. Everything downstream (sessions,
// partitions, signatures, pruning, DR) is computed from FaultResponses
// without touching the netlist again — which is what makes sweeping dozens
// of diagnosis configurations over one fault-simulation pass cheap.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/bitvector.hpp"
#include "sim/fault_list.hpp"
#include "sim/logic_simulator.hpp"

namespace scandiag {

struct BridgeFault;

/// Stimulus for every source gate (PIs and scan-loaded DFFs), one bit per
/// (source, pattern), in one dense block of sources x words. Row k is DFF
/// ordinal k, row dffs().size() + i is primary input i — the order the PRPG
/// emits them. Pattern lanes beyond numPatterns() stay 0.
class PatternSet {
 public:
  PatternSet(const Netlist& netlist, std::size_t numPatterns);

  std::size_t numPatterns() const { return numPatterns_; }
  std::size_t wordCount() const { return words_; }
  std::size_t sourceCount() const { return block_.size() / words_; }

  bool isSource(GateId id) const { return rowOf(id) != NetlistImage::kNone; }
  /// Pattern t's bit of source `id`.
  bool bit(GateId id, std::size_t t) const;
  /// 64-pattern slice for simulation; 0 for non-sources and beyond the set.
  SimWord word(GateId id, std::size_t w) const;

  /// Row access (see the class comment for the row order).
  SimWord rowWord(std::size_t row, std::size_t w) const { return block_[row * words_ + w]; }
  SimWord* row(std::size_t row) { return block_.data() + row * words_; }
  void setRowBit(std::size_t row, std::size_t t, bool value);

 private:
  std::uint32_t rowOf(GateId id) const {
    return id < image_->gateCount() ? image_->sourceRow[id] : NetlistImage::kNone;
  }

  std::shared_ptr<const NetlistImage> image_;
  std::size_t numPatterns_;
  std::size_t words_;
  std::vector<SimWord> block_;  // [row * wordCount() + w]
};

struct FaultResponse {
  FaultSite fault;
  /// failingCells.test(k): DFF ordinal k captured at least one error.
  BitVector failingCells;
  /// Parallel arrays: ordinal + pattern-indexed error stream per failing cell.
  std::vector<std::size_t> failingCellOrdinals;
  std::vector<BitVector> errorStreams;

  bool detected() const { return !failingCellOrdinals.empty(); }
  std::size_t failingCellCount() const { return failingCellOrdinals.size(); }
};

/// Thread ownership: one FaultSimulator instance is owned by one thread at a
/// time. simulate()/collectDetected() grow a sparse cone cache, reuse
/// scratch buffers and briefly mutate the good-value store in place
/// (restoring it before returning), so concurrent calls on a *shared*
/// instance are not allowed — create one simulator per thread instead, as
/// the SoC driver does, or hold one lock around every call, as serve does.
/// Construction costs one pass of the image's program per 64-pattern word
/// plus a few gate-indexed integer arrays (the image and levelization are
/// the netlist's); a site's cone is walked, in O(cone), on its first fault.
/// The read-only accessors (goodValue/goodCaptures/...) observe the
/// fault-free state whenever no simulate() call is in flight.
class FaultSimulator {
 public:
  FaultSimulator(const Netlist& netlist, const PatternSet& patterns);

  const Netlist& netlist() const { return *netlist_; }
  const PatternSet& patterns() const { return *patterns_; }
  const LogicSimulator& simulator() const { return sim_; }

  /// Fault-free captured value of each DFF (by ordinal), per pattern, read
  /// off the good machine on each call.
  std::vector<BitVector> goodCaptures() const;

  /// Fault-free value word of any gate (pattern-per-bit), for extensions that
  /// re-evaluate against the good machine (e.g. stuck-open faults).
  SimWord goodValue(GateId id, std::size_t word) const { return goodValues_.at(word).at(id); }
  /// Complete good evaluation of one 64-pattern batch.
  const std::vector<SimWord>& goodBatch(std::size_t word) const { return goodValues_.at(word); }

  /// Hot path: cone-cached, copy-free (save/evaluate/restore touches only the
  /// fault cone's gates instead of copying the whole good-value vector per
  /// 64-pattern word). Output is bit-identical to simulateReference().
  FaultResponse simulate(const FaultSite& fault) const;

  /// One bridge (sim/bridge_faults.hpp), simulated like simulate(): the union
  /// of the two nets' cones is saved, evaluated in place and restored, per
  /// 64-pattern word. The response's `fault` field carries site a for
  /// reporting only. Counts no observability counters and leaves the cone
  /// cache untouched, so stuck-at counters stay bridge-agnostic.
  FaultResponse simulateBridge(const BridgeFault& bridge) const;

  /// Reference implementation: recomputes the cone and copies the full
  /// good-value vector per word (the pre-cache algorithm). Kept as the parity
  /// oracle for tests and the before/after baseline in bench_perf; records no
  /// observability counters so golden counter sections stay cache-agnostic.
  FaultResponse simulateReference(const FaultSite& fault) const;

  /// Simulates `candidates` in order, keeping only detected faults, until
  /// `target` responses are collected (or candidates run out). This is the
  /// paper's "inject 500 single stuck-at faults" step with the convention of
  /// DESIGN.md §5 (undetected faults contribute nothing to DR).
  std::vector<FaultResponse> collectDetected(const std::vector<FaultSite>& candidates,
                                             std::size_t target) const;

 private:
  /// Per-site cone data, built on the first fault at that site and reused by
  /// every later one (output SA0/SA1 and all pin faults share the output
  /// cone); immutable once built.
  struct ConeEntry {
    FaultCone cone;
    /// Site is a source gate: evaluateFaulty may force values[site], which is
    /// outside cone.gates, so save/restore needs one extra slot for it.
    bool sourceSite = false;
    std::vector<std::size_t> ordinals;      // reachable DFF ordinals, ascending
    std::vector<GateId> drivers;            // D-input driver per reachable DFF
    std::vector<std::uint32_t> driverSlot;  // save-slot index of drivers[i]
  };

  /// Reusable per-instance buffers for the save/evaluate/restore hot path;
  /// capacity persists across simulate() calls so the steady state allocates
  /// nothing.
  struct SimScratch {
    std::vector<SimWord> saved;     // [save slot] good values of touched gates
    std::vector<SimWord> errWords;  // [cone cell i * words + w] error words
  };

  const ConeEntry& coneEntry(GateId site) const;
  /// Shared handling of a branch fault on a DFF D pin (capture-side only).
  FaultResponse dffPinResponse(const FaultSite& fault) const;

  const Netlist* netlist_;
  const PatternSet* patterns_;
  LogicSimulator sim_;
  // Mutable: simulate() evaluates faulty values in place on the good-value
  // store and restores them before returning, and grows the cone cache (see
  // the class comment).
  mutable std::vector<std::vector<SimWord>> goodValues_;  // [word][gate]
  mutable ConeWalker walker_;
  mutable std::vector<std::uint32_t> entryOf_;  // [gate] index into cones_ or kNone
  mutable std::deque<ConeEntry> cones_;         // stable addresses
  mutable std::vector<std::uint32_t> slotOf_;   // [gate] save slot; kNone between builds
  mutable SimScratch scratch_;
};

}  // namespace scandiag

// Cycle-accurate scan-BIST session controller — hardware-in-the-loop
// validation for the fast analytic engine.
//
// Everything else in scandiag reasons about sessions algebraically (per-cell
// error streams, linear MISR weights). This model instead runs a session the
// way the silicon does, clock by clock:
//
//   for each pattern t:
//     L shift cycles: the PRPG feeds the scan-in ends, chains shift toward
//       scan-out, and the bits leaving the scan-out ends pass the selection
//       AND gate (masked to 0 outside the active group) into the MISR —
//       simultaneously unloading pattern t-1's capture;
//     1 capture cycle: the combinational logic evaluates with the loaded
//       state + this pattern's PI values, and every DFF captures its D.
//   L final shift cycles unload the last capture.
//
// The MISR clocks only on unload cycles, so the cell at position p of pattern
// t enters on clock t*L + p — exactly the cycle map SessionEngine's linear
// model assumes. Tests assert the two agree bit-for-bit on signatures, which
// pins every ordering convention (scan-out direction, chain/line mapping,
// masking) to physical behaviour.
#pragma once

#include <optional>

#include "bist/misr.hpp"
#include "bist/prpg.hpp"
#include "bist/space_compactor.hpp"
#include "bist/scan_topology.hpp"
#include "sim/logic_simulator.hpp"

namespace scandiag {

struct BistControllerConfig {
  std::size_t numPatterns = 16;
  /// MISR width; taps are primitiveTapMask(misrDegree), as in SessionEngine.
  unsigned misrDegree = 16;
  /// Optional space compactor between scan-out and MISR (must outlive the
  /// controller). Null = one MISR input per chain.
  const SpaceCompactor* compactor = nullptr;
};

class BistController {
 public:
  BistController(const Netlist& netlist, const ScanTopology& topology,
                 const BistControllerConfig& config);

  /// Runs one full session: only cells at selected positions reach the MISR.
  /// With `fault`, the DUT carries that stuck-at fault. `patterns` supplies
  /// the scan-load and PI data (same object the analytic engine uses).
  /// Returns the final MISR signature.
  std::uint64_t runSession(const PatternSet& patterns, const BitVector& selectedPositions,
                           const std::optional<FaultSite>& fault = std::nullopt) const;

  /// Error signature of a session: faulty XOR fault-free run.
  std::uint64_t sessionErrorSignature(const PatternSet& patterns,
                                      const BitVector& selectedPositions,
                                      const FaultSite& fault) const;

 private:
  const Netlist* netlist_;
  const ScanTopology* topology_;
  BistControllerConfig config_;
  LogicSimulator sim_;
};

}  // namespace scandiag

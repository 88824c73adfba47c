// PODEM — deterministic test pattern generation for single stuck-at faults.
//
// The paper drives diagnosis with pseudorandom PRPG patterns; a deterministic
// ATPG substrate lets the benches ask how diagnosis behaves under the *other*
// industrial regime (compact deterministic test sets detect each fault with
// far fewer patterns, so each fault produces far fewer error bits — see
// bench_ext_atpg). It also provides exact testability data: a fault PODEM
// proves untestable can never produce failing cells.
//
// Classic PODEM (Goel 1981) over the full-scan combinational frame:
//  * values are pairs of 3-valued planes (good, faulty); (1,0) = D, (0,1) = D̄;
//  * decisions are made only at sources (PIs and scan cells), chosen by
//    backtracing the current objective through X-valued gates;
//  * the objective is fault activation first, then D-frontier propagation;
//  * implication is event-driven over the netlist image's types and CSR
//    adjacency: generate() starts from the all-X plane precomputed at
//    construction, injects the fault, and after each
//    decision, flip or pop re-evaluates (in both planes, level by level) only
//    the gates whose inputs changed; the faulty plane is forced at the fault
//    site, and the D-frontier and observation checks scan only the fault's
//    fanout cone;
//  * success when a D/D̄ reaches an observation point (PO or a DFF D input);
//    exhausting the decision tree (within the backtrack limit) proves the
//    fault untestable.
#pragma once

#include <optional>

#include "common/bitvector.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

/// A generated test: source assignments with explicit care bits. Unassigned
/// (X) sources may take any value without losing detection.
struct TestCube {
  /// Indexed by GateId; meaningful only for source gates with care set.
  BitVector care;
  BitVector value;

  /// Materializes the cube into pattern `t` of `patterns`, filling X bits
  /// from `fillSeed`'s bit stream (deterministic).
  void applyTo(PatternSet& patterns, std::size_t t, const Netlist& netlist,
               std::uint64_t fillSeed) const;
};

struct AtpgStats {
  std::size_t decisions = 0;
  std::size_t backtracks = 0;
};

enum class AtpgOutcome {
  Detected,     // cube generated
  Untestable,   // decision tree exhausted: no test exists
  Aborted,      // backtrack limit hit
};

struct AtpgResult {
  AtpgOutcome outcome = AtpgOutcome::Aborted;
  TestCube cube;  // valid iff outcome == Detected
  AtpgStats stats;
};

/// Thread safety: generate() and generateCompactSet() are const and keep all
/// mutable search state per call, so one instance may serve many threads.
class PodemAtpg {
 public:
  explicit PodemAtpg(const Netlist& netlist);

  /// Generates a test observing the fault at a scan cell or primary output.
  AtpgResult generate(const FaultSite& fault, std::size_t backtrackLimit = 5000) const;

  /// Deterministic test set for a fault list with forward fault dropping: a
  /// fault already detected by the cubes in the block simulator gets no new
  /// cube. Returns the cubes in generation order.
  std::vector<TestCube> generateCompactSet(const std::vector<FaultSite>& faults,
                                           std::size_t backtrackLimit = 5000) const;

 private:
  /// 3-valued evaluation (0, 1, 2 = X) of combinational gate `id` over
  /// `plane`, with fanin `pin` forced to `forced` (kOutputPin: none).
  std::uint8_t eval(GateId id, const std::uint8_t* plane, int pin, std::uint8_t forced) const;

  LogicSimulator sim_;
  const NetlistImage* image_;  // the netlist's: types and CSR adjacency
  std::vector<std::uint32_t> orderPos_;  // index in the levelized order
  /// Good plane with every PI and scan cell at X (0, 1, 2 = X); equal to the
  /// faulty plane until the fault is injected.
  std::vector<std::uint8_t> allX_;
};

/// PatternSet assembled from cubes (one pattern per cube, X filled
/// pseudorandomly), ready for the fault simulator / diagnosis stack.
PatternSet patternsFromCubes(const Netlist& netlist, const std::vector<TestCube>& cubes,
                             std::uint64_t fillSeed = 0xF1LL);

}  // namespace scandiag

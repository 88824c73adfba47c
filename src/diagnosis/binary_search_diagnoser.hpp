// Adaptive binary-search diagnosis — the baseline of Ghosh-Dastidar & Touba
// [6], contrasted in paper §2.2.
//
// Instead of a precommitted partition schedule, the tester runs a session
// observing one half of a known-failing interval of the selection axis; if
// the half fails it is split further, and when a half passes its sibling is
// known to fail without a session (the parent failed). Recursion bottoms out
// at single positions, so the result is the *exact* set of failing positions
// — perfect positional resolution — at a data-dependent session cost, and
// with the operational drawback the paper highlights: "test application must
// be frequently interrupted to execute a binary search procedure", i.e. the
// schedule cannot be precomputed and burned into the BIST controller.
#pragma once

#include <functional>

#include "bist/scan_topology.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/cost_model.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

struct BinarySearchResult {
  CandidateSet candidates;
  /// Sessions actually executed (inferred verdicts are free).
  std::size_t sessions = 0;
  DiagnosisCost cost;
};

/// Session verdict for the interval [lo, hi) of the selection axis.
using IntervalOracle = std::function<bool(std::size_t lo, std::size_t hi)>;

class BinarySearchDiagnoser {
 public:
  BinarySearchDiagnoser(const ScanTopology& topology, std::size_t numPatterns);

  /// Exact-verdict adaptive diagnosis of one fault's responses.
  BinarySearchResult diagnose(const FaultResponse& response) const;

  /// Mean sessions over a set of responses (for the baselines bench).
  double meanSessions(const std::vector<FaultResponse>& responses) const;

 private:
  const ScanTopology* topology_;
  std::size_t numPatterns_;
};

}  // namespace scandiag

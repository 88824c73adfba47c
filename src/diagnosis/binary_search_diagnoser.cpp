#include "diagnosis/binary_search_diagnoser.hpp"

#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace scandiag {

BinarySearchDiagnoser::BinarySearchDiagnoser(const ScanTopology& topology,
                                             std::size_t numPatterns)
    : topology_(&topology), numPatterns_(numPatterns) {
  SCANDIAG_REQUIRE(numPatterns >= 1, "need at least one pattern");
}

BinarySearchResult BinarySearchDiagnoser::diagnose(const FaultResponse& response) const {
  const std::size_t length = topology_->maxChainLength();
  const BitVector failingPositions = topology_->collapseCells(response.failingCells);

  BinarySearchResult result;
  result.candidates.positions = BitVector(length);

  // Exact session oracle: does any selected position hold a failing cell?
  // Each query is one full BIST session over [lo, hi).
  auto intervalFails = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      if (failingPositions.test(p)) return true;
    }
    return false;
  };

  // Seed with one session over the whole axis.
  std::vector<std::pair<std::size_t, std::size_t>> failing;  // known-failing intervals
  ++result.sessions;
  if (intervalFails(0, length)) failing.push_back({0, length});

  while (!failing.empty()) {
    const auto [lo, hi] = failing.back();
    failing.pop_back();
    if (hi - lo == 1) {
      result.candidates.positions.set(lo);
      continue;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    ++result.sessions;
    const bool leftFails = intervalFails(lo, mid);
    if (leftFails) {
      failing.push_back({lo, mid});
      // The right half's verdict is unknown; it costs a session.
      ++result.sessions;
      if (intervalFails(mid, hi)) failing.push_back({mid, hi});
    } else {
      // Parent failed and the left half passed: the right half fails, free.
      failing.push_back({mid, hi});
    }
  }

  result.candidates.cells = topology_->expandPositions(result.candidates.positions);
  const DiagnosisCost perSession = sessionCost(numPatterns_, length);
  result.cost.sessions = result.sessions;
  result.cost.clockCycles = perSession.clockCycles * result.sessions;
  return result;
}

double BinarySearchDiagnoser::meanSessions(const std::vector<FaultResponse>& responses) const {
  std::size_t total = 0, count = 0;
  for (const FaultResponse& r : responses) {
    if (!r.detected()) continue;
    total += diagnose(r).sessions;
    ++count;
  }
  SCANDIAG_REQUIRE(count > 0, "no detected responses");
  return static_cast<double>(total) / static_cast<double>(count);
}

}  // namespace scandiag

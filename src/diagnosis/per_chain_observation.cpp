#include "diagnosis/per_chain_observation.hpp"

#include "common/assert.hpp"

namespace scandiag {

PerChainVerdicts PerChainObservation::run(const std::vector<Partition>& partitions,
                                          const FaultResponse& response) const {
  const std::size_t W = topology_->numChains();
  const std::size_t L = topology_->maxChainLength();

  // Failing positions per chain.
  std::vector<BitVector> failingPositions(W, BitVector(L));
  for (std::size_t cell = response.failingCells.findFirst(); cell != BitVector::npos;
       cell = response.failingCells.findNext(cell)) {
    const ScanTopology::CellLoc loc = topology_->location(cell);
    failingPositions[loc.chain].set(loc.position);
  }

  PerChainVerdicts verdicts;
  verdicts.failing.reserve(partitions.size());
  for (const Partition& partition : partitions) {
    SCANDIAG_REQUIRE(partition.length() == L, "partition length does not match topology");
    std::vector<BitVector> perChain(W, BitVector(partition.groupCount()));
    for (std::size_t c = 0; c < W; ++c) {
      for (std::size_t g = 0; g < partition.groupCount(); ++g) {
        if (partition.groups[g].intersects(failingPositions[c])) perChain[c].set(g);
      }
    }
    verdicts.failing.push_back(std::move(perChain));
  }
  return verdicts;
}

CandidateSet PerChainObservation::analyze(const std::vector<Partition>& partitions,
                                          const PerChainVerdicts& verdicts) const {
  SCANDIAG_REQUIRE(partitions.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  const std::size_t W = topology_->numChains();
  const std::size_t L = topology_->maxChainLength();

  // Candidate positions tracked per chain.
  std::vector<BitVector> perChainPositions(W, BitVector(L, true));
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t c = 0; c < W; ++c) {
      perChainPositions[c] &= partitions[p].failingUnion(verdicts.failing[p][c]);
    }
  }

  CandidateSet out;
  out.positions = BitVector(L);
  out.cells = BitVector(topology_->numCells());
  for (std::size_t cell = 0; cell < topology_->numCells(); ++cell) {
    const ScanTopology::CellLoc loc = topology_->location(cell);
    if (perChainPositions[loc.chain].test(loc.position)) {
      out.cells.set(cell);
      out.positions.set(loc.position);
    }
  }
  return out;
}

CandidateSet PerChainObservation::diagnose(const std::vector<Partition>& partitions,
                                           const FaultResponse& response) const {
  return analyze(partitions, run(partitions, response));
}

}  // namespace scandiag

#include "bist/chain_diagnosis.hpp"

#include "common/assert.hpp"

namespace scandiag {

ChainIntegrityModel::ChainIntegrityModel(const Netlist& netlist, const ScanTopology& topology)
    : netlist_(&netlist), topology_(&topology), sim_(netlist) {
  SCANDIAG_REQUIRE(topology.numCells() == netlist.dffs().size(),
                   "topology does not match the netlist's scan cells");
}

BitVector ChainIntegrityModel::flushObservation(std::size_t chain,
                                                const std::optional<ChainFault>& fault) const {
  SCANDIAG_REQUIRE(chain < topology_->numChains(), "chain index out of range");
  const std::size_t len = topology_->chainLength(chain);
  const bool faulty = fault && fault->chain == chain;
  if (faulty)
    SCANDIAG_REQUIRE(fault->position < len, "chain fault position out of range");

  std::vector<std::uint8_t> cells(len, 0);
  BitVector out(2 * len);
  for (std::size_t cycle = 0; cycle < 2 * len; ++cycle) {
    // The bit leaving position 0; a fault at position 0 masks even that.
    bool exiting = cells[0];
    if (faulty && fault->position == 0) exiting = fault->stuckAt;
    out.set(cycle, exiting);
    // Shift toward position 0; the faulty cell presents its stuck value.
    for (std::size_t p = 0; p + 1 < len; ++p) {
      bool incoming = cells[p + 1];
      if (faulty && fault->position == p + 1) incoming = fault->stuckAt;
      cells[p] = incoming;
    }
    cells[len - 1] = cycle & 1;  // 0101... toggle flush sequence
  }
  return out;
}

ChainIntegrityModel::FlushVerdict ChainIntegrityModel::judgeFlush(
    const BitVector& observation) const {
  FlushVerdict verdict;
  // An intact chain reproduces the toggle in the second half of the unload;
  // a stuck chain's second half is constant at the stuck value.
  const std::size_t len = observation.size() / 2;
  bool allZero = true, allOne = true;
  for (std::size_t i = len; i < observation.size(); ++i) {
    allZero &= !observation.test(i);
    allOne &= observation.test(i);
  }
  if (allZero || allOne) {
    verdict.pass = false;
    verdict.stuckValue = allOne;
  }
  return verdict;
}

std::vector<BitVector> ChainIntegrityModel::captureObservation(
    const PatternSet& patterns, std::size_t t, const std::optional<ChainFault>& fault) const {
  SCANDIAG_REQUIRE(t < patterns.numPatterns(), "pattern index out of range");
  const std::size_t W = topology_->numChains();
  if (fault) {
    SCANDIAG_REQUIRE(fault->chain < W, "chain fault chain out of range");
    SCANDIAG_REQUIRE(fault->position < topology_->chainLength(fault->chain),
                     "chain fault position out of range");
  }

  // Loaded state: intended bits, except positions <= p on the faulty chain
  // (their bits passed through the stuck cell on the way in).
  std::vector<SimWord> values(netlist_->gateCount(), 0);
  for (GateId pi : netlist_->inputs())
    values[pi] = patterns.bit(pi, t) ? ~SimWord{0} : SimWord{0};
  for (std::size_t c = 0; c < W; ++c) {
    for (std::size_t p = 0; p < topology_->chainLength(c); ++p) {
      bool bit = patterns.bit(netlist_->dffs()[topology_->chain(c)[p]], t);
      if (fault && fault->chain == c && p <= fault->position) bit = fault->stuckAt;
      values[netlist_->dffs()[topology_->chain(c)[p]]] = bit ? ~SimWord{0} : SimWord{0};
    }
  }
  sim_.evaluate(values);

  // Unload: captured D values; positions >= p on the faulty chain read back
  // as the stuck value (they cross the faulty cell on the way out).
  std::vector<BitVector> observed;
  observed.reserve(W);
  for (std::size_t c = 0; c < W; ++c) {
    const std::size_t len = topology_->chainLength(c);
    BitVector bits(len);
    for (std::size_t p = 0; p < len; ++p) {
      const GateId dff = netlist_->dffs()[topology_->chain(c)[p]];
      bool bit = values[netlist_->gate(dff).fanins[0]] & 1u;
      if (fault && fault->chain == c && p >= fault->position) bit = fault->stuckAt;
      bits.set(p, bit);
    }
    observed.push_back(std::move(bits));
  }
  return observed;
}

std::vector<std::size_t> ChainIntegrityModel::locateFault(const PatternSet& patterns,
                                                          std::size_t t,
                                                          const std::vector<BitVector>& observed,
                                                          std::size_t chain,
                                                          bool stuckValue) const {
  SCANDIAG_REQUIRE(chain < topology_->numChains(), "chain index out of range");
  SCANDIAG_REQUIRE(observed.size() == topology_->numChains(), "observation arity mismatch");
  std::vector<std::size_t> candidates;
  for (std::size_t p = 0; p < topology_->chainLength(chain); ++p) {
    const ChainFault hypothesis{chain, p, stuckValue};
    if (captureObservation(patterns, t, hypothesis) == observed) candidates.push_back(p);
  }
  return candidates;
}

}  // namespace scandiag

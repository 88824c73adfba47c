#include "bist/bist_controller.hpp"

#include "bist/primitive_polys.hpp"
#include "common/assert.hpp"
#include "netlist/cone_analysis.hpp"

namespace scandiag {

BistController::BistController(const Netlist& netlist, const ScanTopology& topology,
                               const BistControllerConfig& config)
    : netlist_(&netlist), topology_(&topology), config_(config), sim_(netlist) {
  SCANDIAG_REQUIRE(topology.numCells() == netlist.dffs().size(),
                   "topology does not match the netlist's scan cells");
  SCANDIAG_REQUIRE(config.numPatterns >= 1, "session needs at least one pattern");
}

std::uint64_t BistController::runSession(const PatternSet& patterns,
                                         const BitVector& selectedPositions,
                                         const std::optional<FaultSite>& fault) const {
  const std::size_t W = topology_->numChains();
  const std::size_t L = topology_->maxChainLength();
  SCANDIAG_REQUIRE(selectedPositions.size() == L, "selection mask size mismatch");
  SCANDIAG_REQUIRE(patterns.numPatterns() >= config_.numPatterns,
                   "pattern set shorter than the session");

  // Note on fault semantics: a stuck scan-cell Q corrupts what the logic
  // sees at capture; shift-path integrity is assumed (chain flush tests are a
  // separate concern), matching the analytic engine's model.
  std::optional<FaultCone> cone;
  if (fault) cone = computeCone(*netlist_, sim_.levelization(), fault->gate);
  const bool dffPinFault =
      fault && !fault->isOutputFault() && netlist_->gate(fault->gate).type == GateType::Dff;

  const std::size_t lines = config_.compactor ? config_.compactor->outputLines() : W;
  if (config_.compactor) {
    SCANDIAG_REQUIRE(config_.compactor->inputChains() == W,
                     "compactor width does not match topology");
  }
  Misr misr(config_.misrDegree, primitiveTapMask(config_.misrDegree),
            static_cast<unsigned>(lines));

  // Chain contents; padded positions (beyond a chain's length) stay 0.
  std::vector<std::vector<std::uint8_t>> chain(W, std::vector<std::uint8_t>(L, 0));
  auto cellAt = [&](std::size_t c, std::size_t p) -> std::size_t {
    return p < topology_->chainLength(c) ? topology_->chain(c)[p]
                                         : static_cast<std::size_t>(-1);
  };

  auto shiftCycle = [&](std::size_t posIndex, bool clockMisr,
                        const std::optional<std::size_t>& loadPattern) {
    if (clockMisr) {
      std::uint64_t inputs = 0;
      if (selectedPositions.test(posIndex)) {
        for (std::size_t c = 0; c < W; ++c)
          inputs |= static_cast<std::uint64_t>(chain[c][0]) << c;
      }
      misr.clock(config_.compactor ? config_.compactor->apply(inputs) : inputs);
    }
    for (std::size_t c = 0; c < W; ++c) {
      for (std::size_t p = 0; p + 1 < L; ++p) chain[c][p] = chain[c][p + 1];
      std::uint8_t in = 0;
      if (loadPattern) {
        // The bit fed at cycle j lands at position j after the load finishes.
        const std::size_t cell = cellAt(c, posIndex);
        if (cell != static_cast<std::size_t>(-1)) {
          const GateId dff = netlist_->dffs()[cell];
          in = patterns.bit(dff, *loadPattern);
        }
      }
      chain[c][L - 1] = in;
    }
  };

  std::vector<SimWord> values(netlist_->gateCount(), 0);
  for (std::size_t t = 0; t < config_.numPatterns; ++t) {
    // Load pattern t (unloading pattern t-1's capture; the MISR idles during
    // the very first load so clock t*L + p consumes capture t at position p).
    for (std::size_t j = 0; j < L; ++j) shiftCycle(j, /*clockMisr=*/t > 0, t);

    // Capture cycle: evaluate one functional cycle with the loaded state.
    for (GateId pi : netlist_->inputs())
      values[pi] = patterns.bit(pi, t) ? ~SimWord{0} : SimWord{0};
    for (std::size_t c = 0; c < W; ++c) {
      for (std::size_t p = 0; p < topology_->chainLength(c); ++p) {
        values[netlist_->dffs()[topology_->chain(c)[p]]] =
            chain[c][p] ? ~SimWord{0} : SimWord{0};
      }
    }
    sim_.evaluate(values);
    if (fault && !dffPinFault) sim_.evaluateFaulty(*fault, *cone, values);
    for (std::size_t c = 0; c < W; ++c) {
      for (std::size_t p = 0; p < topology_->chainLength(c); ++p) {
        const GateId dff = netlist_->dffs()[topology_->chain(c)[p]];
        bool captured = values[netlist_->gate(dff).fanins[0]] & 1u;
        if (dffPinFault && dff == fault->gate) captured = fault->stuckAt;
        chain[c][p] = captured;
      }
    }
  }
  // Final unload of the last capture.
  for (std::size_t j = 0; j < L; ++j) shiftCycle(j, /*clockMisr=*/true, std::nullopt);

  return misr.signature();
}

std::uint64_t BistController::sessionErrorSignature(const PatternSet& patterns,
                                                    const BitVector& selectedPositions,
                                                    const FaultSite& fault) const {
  const std::uint64_t good = runSession(patterns, selectedPositions);
  const std::uint64_t bad = runSession(patterns, selectedPositions, fault);
  return good ^ bad;
}

}  // namespace scandiag

#include "sim/fault_simulator.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

PatternSet::PatternSet(const Netlist& netlist, std::size_t numPatterns)
    : image_(netlist.image()), numPatterns_(numPatterns), words_((numPatterns + 63) / 64) {
  SCANDIAG_REQUIRE(numPatterns > 0, "pattern set must be nonempty");
  block_.assign((netlist.dffs().size() + netlist.inputs().size()) * words_, SimWord{0});
}

bool PatternSet::bit(GateId id, std::size_t t) const {
  const std::uint32_t r = rowOf(id);
  SCANDIAG_REQUIRE(r != NetlistImage::kNone, "bit() on a non-source gate");
  SCANDIAG_REQUIRE(t < numPatterns_, "pattern index out of range");
  return (block_[r * words_ + t / 64] >> (t % 64)) & 1u;
}

SimWord PatternSet::word(GateId id, std::size_t w) const {
  const std::uint32_t r = rowOf(id);
  if (r == NetlistImage::kNone || w >= words_) return SimWord{0};
  return block_[r * words_ + w];
}

void PatternSet::setRowBit(std::size_t row, std::size_t t, bool value) {
  SCANDIAG_REQUIRE(t < numPatterns_, "pattern index out of range");
  SimWord& w = block_[row * words_ + t / 64];
  const SimWord mask = SimWord{1} << (t % 64);
  w = value ? (w | mask) : (w & ~mask);
}

FaultSimulator::FaultSimulator(const Netlist& netlist, const PatternSet& patterns)
    : netlist_(&netlist),
      patterns_(&patterns),
      sim_(netlist),
      walker_(netlist, sim_.levelization()),
      entryOf_(netlist.gateCount(), ConeWalker::kNone),
      slotOf_(netlist.gateCount(), ConeWalker::kNone) {
  obs::PhaseScope phase(obs::Phase::GoodMachineSim);
  const std::size_t words = patterns.wordCount();
  const std::vector<GateId>& dffs = netlist.dffs();
  const std::vector<GateId>& inputs = netlist.inputs();
  goodValues_.assign(words, std::vector<SimWord>(netlist.gateCount(), 0));
  for (std::size_t w = 0; w < words; ++w) {
    std::vector<SimWord>& values = goodValues_[w];
    for (std::size_t k = 0; k < dffs.size(); ++k) values[dffs[k]] = patterns.rowWord(k, w);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      values[inputs[i]] = patterns.rowWord(dffs.size() + i, w);
    sim_.evaluate(values);
  }
}

std::vector<BitVector> FaultSimulator::goodCaptures() const {
  const NetlistImage& image = sim_.image();
  const std::vector<GateId>& dffs = netlist_->dffs();
  std::vector<BitVector> captures(dffs.size(), BitVector(patterns_->numPatterns()));
  for (std::size_t k = 0; k < dffs.size(); ++k) {
    const GateId driver = image.fanins(dffs[k])[0];
    for (std::size_t w = 0; w < goodValues_.size(); ++w)
      captures[k].setWord(w, goodValues_[w][driver]);
  }
  return captures;
}

FaultResponse FaultSimulator::dffPinResponse(const FaultSite& fault) const {
  // A branch fault on a DFF D pin corrupts only that cell's capture: the
  // faulty captured value never re-enters the circuit because the next
  // pattern reloads the whole chain from the PRPG.
  const std::size_t numPatterns = patterns_->numPatterns();
  const std::size_t words = patterns_->wordCount();
  FaultResponse resp;
  resp.fault = fault;
  resp.failingCells = BitVector(netlist_->dffs().size());
  const std::size_t k = walker_.dffOrdinal(fault.gate);
  const GateId driver = sim_.image().fanins(fault.gate)[0];
  BitVector err(numPatterns);
  for (std::size_t w = 0; w < words; ++w) {
    const SimWord stuck = fault.stuckAt ? ~SimWord{0} : SimWord{0};
    err.setWord(w, goodValues_[w][driver] ^ stuck);
  }
  if (err.any()) {
    resp.failingCells.set(k);
    resp.failingCellOrdinals.push_back(k);
    resp.errorStreams.push_back(std::move(err));
  }
  return resp;
}

const FaultSimulator::ConeEntry& FaultSimulator::coneEntry(GateId site) const {
  if (entryOf_[site] != ConeWalker::kNone) {
    // Hits = cone-path simulate calls minus distinct sites, both functions of
    // the fault list alone — deterministic at every thread count.
    obs::count(obs::Counter::ConeCacheHits);
    return cones_[entryOf_[site]];
  }
  ConeEntry entry;
  entry.cone = walker_.walk(site);
  entry.sourceSite = isSourceType(sim_.image().type[site]);
  entry.ordinals = entry.cone.reachableDffs.toIndices();
  // Save-slot layout: cone.gates in order, then (for a source site) one
  // extra slot for the site itself, which evaluateFaulty forces directly.
  const std::vector<GateId>& gates = entry.cone.gates;
  for (std::uint32_t j = 0; j < gates.size(); ++j) slotOf_[gates[j]] = j;
  if (entry.sourceSite) slotOf_[site] = static_cast<std::uint32_t>(gates.size());
  for (const std::size_t k : entry.ordinals) {
    const GateId driver = sim_.image().fanins(netlist_->dffs()[k])[0];
    entry.drivers.push_back(driver);
    entry.driverSlot.push_back(slotOf_[driver]);
  }
  for (const GateId g : gates) slotOf_[g] = ConeWalker::kNone;
  slotOf_[site] = ConeWalker::kNone;
  // A DFF is reachable only via its D-input driver, so the driver is a
  // visited gate: combinational (in cone.gates) or the source site.
  for (const std::uint32_t slot : entry.driverSlot)
    SCANDIAG_ASSERT(slot != ConeWalker::kNone, "reachable DFF driver outside the fault cone");
  cones_.push_back(std::move(entry));
  entryOf_[site] = static_cast<std::uint32_t>(cones_.size() - 1);  // registered once stored
  return cones_.back();
}

FaultResponse FaultSimulator::simulate(const FaultSite& fault) const {
  SCANDIAG_REQUIRE(fault.gate < netlist_->gateCount(), "fault site out of range");
  obs::count(obs::Counter::FaultsSimulated);
  obs::PhaseScope phase(obs::Phase::FaultySim);
  const std::size_t numPatterns = patterns_->numPatterns();
  const std::size_t words = patterns_->wordCount();

  if (!fault.isOutputFault() && netlist_->gate(fault.gate).type == GateType::Dff) {
    return dffPinResponse(fault);
  }

  FaultResponse resp;
  resp.fault = fault;
  resp.failingCells = BitVector(netlist_->dffs().size());

  const ConeEntry& entry = coneEntry(fault.gate);
  const FaultCone& cone = entry.cone;
  if (entry.ordinals.empty()) return resp;  // scan-unobservable fault

  const std::size_t numGates = cone.gates.size();
  const std::size_t saveCount = numGates + (entry.sourceSite ? 1 : 0);
  const std::size_t numCells = entry.ordinals.size();
  obs::count(obs::Counter::ScratchGatesTouched, saveCount * words);

  scratch_.saved.resize(saveCount);
  scratch_.errWords.assign(numCells * words, SimWord{0});

  // Stuck-at forcing sets pattern lanes beyond numPatterns too; mask the tail
  // word so those lanes can never masquerade as errors.
  const std::size_t rem = numPatterns % 64;
  const SimWord tailMask = rem == 0 ? ~SimWord{0} : (SimWord{1} << rem) - 1;

  for (std::size_t w = 0; w < words; ++w) {
    std::vector<SimWord>& values = goodValues_[w];
    // Save the gates evaluateFaulty may write, evaluate the faulty machine in
    // place, read the captured error words, restore — O(cone), not O(gates).
    for (std::size_t j = 0; j < numGates; ++j) scratch_.saved[j] = values[cone.gates[j]];
    if (entry.sourceSite) scratch_.saved[numGates] = values[fault.gate];
    sim_.evaluateFaulty(fault, cone, values);
    const SimWord mask = w + 1 == words ? tailMask : ~SimWord{0};
    for (std::size_t i = 0; i < numCells; ++i) {
      const SimWord good = scratch_.saved[entry.driverSlot[i]];
      scratch_.errWords[i * words + w] = (values[entry.drivers[i]] ^ good) & mask;
    }
    for (std::size_t j = 0; j < numGates; ++j) values[cone.gates[j]] = scratch_.saved[j];
    if (entry.sourceSite) values[fault.gate] = scratch_.saved[numGates];
  }

  for (std::size_t i = 0; i < numCells; ++i) {
    const SimWord* ew = scratch_.errWords.data() + i * words;
    bool any = false;
    for (std::size_t w = 0; w < words && !any; ++w) any = ew[w] != 0;
    if (!any) continue;
    const std::size_t k = entry.ordinals[i];
    BitVector err(numPatterns);
    for (std::size_t w = 0; w < words; ++w) err.setWord(w, ew[w]);
    resp.failingCells.set(k);
    resp.failingCellOrdinals.push_back(k);
    resp.errorStreams.push_back(std::move(err));
  }
  return resp;
}

FaultResponse FaultSimulator::simulateReference(const FaultSite& fault) const {
  SCANDIAG_REQUIRE(fault.gate < netlist_->gateCount(), "fault site out of range");
  const std::size_t numPatterns = patterns_->numPatterns();
  const std::size_t words = patterns_->wordCount();

  if (!fault.isOutputFault() && netlist_->gate(fault.gate).type == GateType::Dff) {
    return dffPinResponse(fault);
  }

  FaultResponse resp;
  resp.fault = fault;
  resp.failingCells = BitVector(netlist_->dffs().size());

  const FaultCone cone = computeCone(*netlist_, sim_.levelization(), fault.gate);
  if (cone.reachableDffs.none()) return resp;  // scan-unobservable fault

  // Per-cell error accumulation, word by word, against a fresh full copy of
  // the good values (the original algorithm, kept as the parity oracle).
  std::vector<std::size_t> coneOrdinals = cone.reachableDffs.toIndices();
  std::vector<BitVector> errs(coneOrdinals.size(), BitVector(numPatterns));
  std::vector<SimWord> values;
  for (std::size_t w = 0; w < words; ++w) {
    values = goodValues_[w];
    sim_.evaluateFaulty(fault, cone, values);
    for (std::size_t i = 0; i < coneOrdinals.size(); ++i) {
      const std::size_t k = coneOrdinals[i];
      const GateId driver = netlist_->gate(netlist_->dffs()[k]).fanins[0];
      errs[i].setWord(w, values[driver] ^ goodValues_[w][driver]);
    }
  }
  for (std::size_t i = 0; i < coneOrdinals.size(); ++i) {
    if (errs[i].any()) {
      resp.failingCells.set(coneOrdinals[i]);
      resp.failingCellOrdinals.push_back(coneOrdinals[i]);
      resp.errorStreams.push_back(std::move(errs[i]));
    }
  }
  return resp;
}

std::vector<FaultResponse> FaultSimulator::collectDetected(
    const std::vector<FaultSite>& candidates, std::size_t target) const {
  std::vector<FaultResponse> out;
  out.reserve(target);
  for (const FaultSite& f : candidates) {
    if (out.size() >= target) break;
    FaultResponse r = simulate(f);
    if (r.detected()) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace scandiag

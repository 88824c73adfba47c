#include "sim/fault_simulator.hpp"

#include <gtest/gtest.h>

#include "bist/prpg.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

// Reference implementation: full (non-cone) re-simulation in level order with
// the fault forced at its site. Any divergence from FaultSimulator's
// cone-restricted evaluation is a bug in one of them.
std::vector<BitVector> referenceCaptures(const Netlist& nl, const PatternSet& pats,
                                         const FaultSite& fault) {
  const LogicSimulator sim(nl);
  const std::size_t words = pats.wordCount();
  const std::size_t numDffs = nl.dffs().size();
  const SimWord stuck = fault.stuckAt ? ~SimWord{0} : SimWord{0};
  std::vector<BitVector> captures(numDffs, BitVector(pats.numPatterns()));
  for (std::size_t w = 0; w < words; ++w) {
    std::vector<SimWord> values(nl.gateCount(), 0);
    for (GateId id = 0; id < nl.gateCount(); ++id)
      if (pats.isSource(id)) values[id] = pats.word(id, w);
    if (fault.isOutputFault() && isSourceType(nl.gate(fault.gate).type))
      values[fault.gate] = stuck;
    // Single level-order pass with the fault forced at its site: every
    // downstream gate reads the faulty value.
    for (GateId id : sim.levelization().order) {
      if (id == fault.gate && fault.isOutputFault()) {
        values[id] = stuck;
      } else if (id == fault.gate && !fault.isOutputFault()) {
        const Gate& g = nl.gate(id);
        const SimWord orig = values[g.fanins[fault.pin]];
        values[g.fanins[fault.pin]] = stuck;
        values[id] = sim.evalGate(id, values);
        values[g.fanins[fault.pin]] = orig;
      } else {
        values[id] = sim.evalGate(id, values);
      }
    }
    for (std::size_t k = 0; k < numDffs; ++k) {
      const GateId dff = nl.dffs()[k];
      const bool dffPinFault = !fault.isOutputFault() && fault.gate == dff;
      const SimWord captured = dffPinFault ? stuck : values[nl.gate(dff).fanins[0]];
      captures[k].setWord(w, captured);
    }
  }
  return captures;
}

class FaultSimAgainstReference : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultSimAgainstReference, ErrorStreamsMatchFullResimulation) {
  const Netlist nl = generateNamedCircuit(GetParam());
  const PatternSet pats = generatePatterns(nl, 96);
  const FaultSimulator fsim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const auto faults = universe.sample(40, 0x5EED);
  for (const FaultSite& fault : faults) {
    const FaultResponse resp = fsim.simulate(fault);
    const std::vector<BitVector> faulty = referenceCaptures(nl, pats, fault);
    for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
      const BitVector expectedErr = faulty[k] ^ fsim.goodCaptures()[k];
      EXPECT_EQ(resp.failingCells.test(k), expectedErr.any())
          << describeFault(nl, fault) << " cell " << k;
      if (resp.failingCells.test(k)) {
        // Find the stream for cell k.
        bool found = false;
        for (std::size_t i = 0; i < resp.failingCellOrdinals.size(); ++i) {
          if (resp.failingCellOrdinals[i] == k) {
            EXPECT_EQ(resp.errorStreams[i], expectedErr) << describeFault(nl, fault);
            found = true;
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, FaultSimAgainstReference,
                         ::testing::Values("s27", "s298", "s344", "s526"));

TEST(FaultSimulator, GoodCapturesConsistentWithPlainSimulation) {
  const Netlist nl = generateNamedCircuit("s298");
  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator fsim(nl, pats);
  const LogicSimulator sim(nl);
  std::vector<SimWord> values(nl.gateCount(), 0);
  for (GateId id = 0; id < nl.gateCount(); ++id)
    if (pats.isSource(id)) values[id] = pats.word(id, 0);
  sim.evaluate(values);
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    EXPECT_EQ(fsim.goodCaptures()[k].word(0), values[nl.gate(nl.dffs()[k]).fanins[0]]);
  }
}

TEST(FaultSimulator, UndetectedFaultHasEmptyResponse) {
  // A fault whose cone reaches only primary outputs is scan-undetectable.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId ff = nl.addDff("ff");
  const GateId po = nl.addGate(GateType::Not, "po", {a});
  nl.setDffInput(ff, a);
  nl.markOutput(po);
  nl.validate();
  const PatternSet pats = generatePatterns(nl, 32);
  const FaultSimulator fsim(nl, pats);
  const FaultResponse r = fsim.simulate({po, FaultSite::kOutputPin, true});
  EXPECT_FALSE(r.detected());
  EXPECT_TRUE(r.failingCells.none());
}

TEST(FaultSimulator, DffPinFaultFailsExactlyThatCell) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId ff1 = nl.addDff("ff1");
  const GateId ff2 = nl.addDff("ff2");
  nl.setDffInput(ff1, a);
  nl.setDffInput(ff2, a);
  nl.markOutput(ff1);
  nl.markOutput(ff2);
  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator fsim(nl, pats);
  const FaultResponse r = fsim.simulate({ff1, 0, true});
  ASSERT_TRUE(r.detected());
  EXPECT_EQ(r.failingCellCount(), 1u);
  EXPECT_EQ(r.failingCellOrdinals[0], 0u);
  // Error stream: patterns where a == 0.
  for (std::size_t t = 0; t < 64; ++t)
    EXPECT_EQ(r.errorStreams[0].test(t), !pats.bit(a, t)) << "pattern " << t;
}

TEST(FaultSimulator, ErrorStreamsMaskedToPatternCount) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId ff = nl.addDff("ff");
  nl.setDffInput(ff, a);
  nl.markOutput(ff);
  const PatternSet pats = generatePatterns(nl, 10);  // non-multiple of 64
  const FaultSimulator fsim(nl, pats);
  const FaultResponse r = fsim.simulate({a, FaultSite::kOutputPin, true});
  if (r.detected()) {
    EXPECT_EQ(r.errorStreams[0].size(), 10u);
    EXPECT_LE(r.errorStreams[0].count(), 10u);
  }
}

TEST(FaultSimulator, CollectDetectedStopsAtTarget) {
  const Netlist nl = generateNamedCircuit("s953");
  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator fsim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const auto candidates = universe.sample(universe.size(), 1);
  const auto responses = fsim.collectDetected(candidates, 20);
  EXPECT_EQ(responses.size(), 20u);
  for (const FaultResponse& r : responses) EXPECT_TRUE(r.detected());
}

void expectResponsesEqual(const Netlist& nl, const FaultResponse& a, const FaultResponse& b) {
  ASSERT_EQ(a.fault, b.fault);
  EXPECT_EQ(a.failingCells, b.failingCells) << describeFault(nl, a.fault);
  ASSERT_EQ(a.failingCellOrdinals, b.failingCellOrdinals) << describeFault(nl, a.fault);
  ASSERT_EQ(a.errorStreams.size(), b.errorStreams.size());
  for (std::size_t i = 0; i < a.errorStreams.size(); ++i) {
    EXPECT_EQ(a.errorStreams[i], b.errorStreams[i])
        << describeFault(nl, a.fault) << " stream " << i;
  }
}

class ScratchParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ScratchParity, ConeScratchPathMatchesReferenceSimulator) {
  // The cone-cached save/evaluate/restore hot path must be bit-identical to
  // the full-copy reference (the pre-cache algorithm), over every collapsed
  // fault — stem, pin, DFF D-pin, and source-output faults alike. A second
  // pass re-simulates with the cone cache warm and the good-value store
  // already cycled through save/restore once.
  const Netlist nl = generateNamedCircuit(GetParam());
  const PatternSet pats = generatePatterns(nl, 96);  // non-multiple of 64: tail mask
  const FaultSimulator fsim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const auto faults = universe.sample(universe.size(), 0xBEEF);
  for (int pass = 0; pass < 2; ++pass) {
    for (const FaultSite& fault : faults) {
      expectResponsesEqual(nl, fsim.simulate(fault), fsim.simulateReference(fault));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScratchParity, ::testing::Values("s298", "s953"));

TEST(FaultSimulator, ScratchRestoresGoodValuesExactly) {
  // After any number of simulate() calls, the good-value store must be
  // byte-identical to its fault-free state: the read-only accessors and
  // every later call depend on a perfect restore.
  const Netlist nl = generateNamedCircuit("s526");
  const PatternSet pats = generatePatterns(nl, 80);
  const FaultSimulator fsim(nl, pats);
  std::vector<std::vector<SimWord>> before;
  for (std::size_t w = 0; w < pats.wordCount(); ++w) before.push_back(fsim.goodBatch(w));
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  for (const FaultSite& fault : universe.sample(50, 0xD1CE)) fsim.simulate(fault);
  for (std::size_t w = 0; w < pats.wordCount(); ++w) {
    EXPECT_EQ(fsim.goodBatch(w), before[w]) << "word " << w;
  }
}

TEST(FaultSimulator, RepeatedSimulationOfOneFaultIsStable) {
  // Same fault through a warm cone cache: responses never drift.
  const Netlist nl = generateNamedCircuit("s344");
  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator fsim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const FaultSite fault = universe.sample(1, 7).front();
  const FaultResponse first = fsim.simulate(fault);
  for (int i = 0; i < 3; ++i) expectResponsesEqual(nl, first, fsim.simulate(fault));
  expectResponsesEqual(nl, first, fsim.simulateReference(fault));
}

TEST(PatternSet, StreamsOnlyForSources) {
  const Netlist nl = generateNamedCircuit("s27");
  PatternSet pats(nl, 16);
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    const GateType t = nl.gate(id).type;
    EXPECT_EQ(pats.isSource(id), t == GateType::Input || t == GateType::Dff);
  }
  EXPECT_THROW(pats.bit(nl.findByName("g0"), 0), std::invalid_argument);
  EXPECT_EQ(pats.word(nl.findByName("g0"), 0), 0u);
}

}  // namespace
}  // namespace scandiag

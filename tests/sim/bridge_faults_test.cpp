#include "sim/bridge_faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "bist/prpg.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "netlist/cone_analysis.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// a = BUF(x), b = BUF(y); ffa <- a, ffb <- b. Bridging a and b has fully
// predictable semantics per pattern.
struct Fixture {
  Netlist nl;
  GateId x, y, a, b, ffa, ffb;

  Fixture() {
    x = nl.addInput("x");
    y = nl.addInput("y");
    a = nl.addGate(GateType::Buf, "a", {x});
    b = nl.addGate(GateType::Buf, "b", {y});
    ffa = nl.addDff("ffa");
    ffb = nl.addDff("ffb");
    nl.setDffInput(ffa, a);
    nl.setDffInput(ffb, b);
    nl.markOutput(a);
    nl.validate();
  }
};

TEST(BridgeFaults, WiredAndSemantics) {
  Fixture f;
  const PatternSet pats = generatePatterns(f.nl, 64);
  const FaultSimulator sim(f.nl, pats);
  const FaultResponse r = sim.simulateBridge({f.a, f.b, BridgeKind::WiredAnd});
  // Cell ffa errs exactly when x=1 & y=0 (a reads 0 instead of 1); ffb when
  // x=0 & y=1.
  for (std::size_t i = 0; i < r.failingCellOrdinals.size(); ++i) {
    const bool isFfa = r.failingCellOrdinals[i] == 0;
    for (std::size_t t = 0; t < 64; ++t) {
      const bool x = pats.bit(f.x, t), y = pats.bit(f.y, t);
      const bool expect = isFfa ? (x && !y) : (!x && y);
      EXPECT_EQ(r.errorStreams[i].test(t), expect) << "t=" << t << " ffa=" << isFfa;
    }
  }
}

TEST(BridgeFaults, DominantSemantics) {
  Fixture f;
  const PatternSet pats = generatePatterns(f.nl, 64);
  const FaultSimulator sim(f.nl, pats);
  const FaultResponse r = sim.simulateBridge({f.a, f.b, BridgeKind::ADominatesB});
  // Only ffb can err (b reads a), exactly when x != y.
  ASSERT_EQ(r.failingCellCount(), 1u);
  EXPECT_EQ(r.failingCellOrdinals[0], 1u);
  BitVector expected(64);
  expected.setWord(0, pats.word(f.x, 0) ^ pats.word(f.y, 0));
  EXPECT_EQ(r.errorStreams[0], expected);
}

TEST(BridgeFaults, FeedbackFreeCheck) {
  Netlist nl;
  const GateId p = nl.addInput("p");
  const GateId g1 = nl.addGate(GateType::Not, "g1", {p});
  const GateId g2 = nl.addGate(GateType::Not, "g2", {g1});
  const GateId g3 = nl.addGate(GateType::Not, "g3", {p});
  nl.markOutput(g2);
  nl.markOutput(g3);
  EXPECT_FALSE(isFeedbackFree(nl, g1, g2));  // g1 -> g2 path
  EXPECT_FALSE(isFeedbackFree(nl, g2, g1));
  EXPECT_TRUE(isFeedbackFree(nl, g2, g3));   // parallel branches
}

TEST(BridgeFaults, EnumerationIsFeedbackFreeAndDeterministic) {
  const Netlist nl = generateNamedCircuit("s953");
  const auto a = enumerateBridgeCandidates(nl, 50, 7);
  const auto b = enumerateBridgeCandidates(nl, 50, 7);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(isFeedbackFree(nl, a[i].a, a[i].b));
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(BridgeFaults, DiagnosisStackConsumesBridgeResponses) {
  // The whole point: FaultResponse is model-agnostic, so partition diagnosis
  // runs unchanged and stays sound on bridges.
  const Netlist nl = generateNamedCircuit("s9234");
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 8;
  config.groupsPerPartition = 16;
  config.numPatterns = 128;
  const DiagnosisPipeline pipeline(topology, config);

  std::size_t detected = 0;
  for (const BridgeFault& bridge : enumerateBridgeCandidates(nl, 60, 0xB1d)) {
    const FaultResponse r = sim.simulateBridge(bridge);
    if (!r.detected()) continue;
    ++detected;
    const FaultDiagnosis d = pipeline.diagnose(r);
    EXPECT_TRUE(r.failingCells.isSubsetOf(d.candidates.cells))
        << bridgeKindName(bridge.kind) << " " << nl.gateName(bridge.a) << "~"
        << nl.gateName(bridge.b);
  }
  EXPECT_GT(detected, 20u);
}

TEST(BridgeFaults, InvalidBridgesRejected) {
  Fixture f;
  const PatternSet pats = generatePatterns(f.nl, 16);
  const FaultSimulator sim(f.nl, pats);
  EXPECT_THROW(sim.simulateBridge({f.a, f.a, BridgeKind::WiredAnd}), std::invalid_argument);
  EXPECT_THROW(sim.simulateBridge({f.a, static_cast<GateId>(999), BridgeKind::WiredAnd}),
               std::invalid_argument);
}

/// Bridge simulation as it was before it ran in place: both cones walked
/// afresh and a full copy of the good values per 64-pattern word.
FaultResponse copyingReference(const FaultSimulator& simulator, const BridgeFault& bridge) {
  const Netlist& nl = simulator.netlist();
  const LogicSimulator& sim = simulator.simulator();
  const FaultCone coneA = computeCone(nl, sim.levelization(), bridge.a);
  const FaultCone coneB = computeCone(nl, sim.levelization(), bridge.b);
  const auto& level = sim.levelization().level;
  std::vector<GateId> gates;
  std::set_union(coneA.gates.begin(), coneA.gates.end(), coneB.gates.begin(), coneB.gates.end(),
                 std::back_inserter(gates), [&](GateId x, GateId y) {
                   return level[x] != level[y] ? level[x] < level[y] : x < y;
                 });
  const std::vector<std::size_t> ordinals =
      (coneA.reachableDffs | coneB.reachableDffs).toIndices();
  FaultResponse resp;
  resp.failingCells = BitVector(nl.dffs().size());
  std::vector<BitVector> errs(ordinals.size(), BitVector(simulator.patterns().numPatterns()));
  for (std::size_t w = 0; w < simulator.patterns().wordCount(); ++w) {
    std::vector<SimWord> values = simulator.goodBatch(w);
    const SimWord va = values[bridge.a], vb = values[bridge.b];
    switch (bridge.kind) {
      case BridgeKind::WiredAnd:
        values[bridge.a] = values[bridge.b] = va & vb;
        break;
      case BridgeKind::WiredOr:
        values[bridge.a] = values[bridge.b] = va | vb;
        break;
      case BridgeKind::ADominatesB:
        values[bridge.b] = va;
        break;
      case BridgeKind::BDominatesA:
        values[bridge.a] = vb;
        break;
    }
    for (const GateId id : gates) {
      if (id != bridge.a && id != bridge.b) values[id] = sim.evalGate(id, values);
    }
    for (std::size_t i = 0; i < ordinals.size(); ++i) {
      const GateId driver = sim.image().fanins(nl.dffs()[ordinals[i]])[0];
      errs[i].setWord(w, values[driver] ^ simulator.goodValue(driver, w));
    }
  }
  for (std::size_t i = 0; i < ordinals.size(); ++i) {
    if (!errs[i].any()) continue;
    resp.failingCells.set(ordinals[i]);
    resp.failingCellOrdinals.push_back(ordinals[i]);
    resp.errorStreams.push_back(std::move(errs[i]));
  }
  return resp;
}

TEST(BridgeFaults, InPlaceMatchesCopyingReference) {
  // 200 patterns leave a partial tail word; stuck-at faults simulated in
  // between share the simulator's walker, scratch and good-value store.
  for (const char* circuit : {"s953", "s9234"}) {
    SCOPED_TRACE(circuit);
    const Netlist nl = generateNamedCircuit(circuit);
    const PatternSet pats = generatePatterns(nl, 200);
    const FaultSimulator sim(nl, pats);
    std::vector<std::vector<SimWord>> good;
    for (std::size_t w = 0; w < pats.wordCount(); ++w) good.push_back(sim.goodBatch(w));
    const std::vector<FaultSite>& stuck = *nl.collapsedFaults();
    std::size_t detected = 0, next = 0;
    for (const BridgeFault& bridge : enumerateBridgeCandidates(nl, 80, 0xB21D6E)) {
      const FaultResponse expected = copyingReference(sim, bridge);
      const FaultResponse actual = sim.simulateBridge(bridge);
      const std::string what = std::string(bridgeKindName(bridge.kind)) + " " +
                               nl.gateName(bridge.a) + "~" + nl.gateName(bridge.b);
      EXPECT_EQ(actual.fault.gate, bridge.a) << what;
      EXPECT_EQ(actual.failingCells, expected.failingCells) << what;
      EXPECT_EQ(actual.failingCellOrdinals, expected.failingCellOrdinals) << what;
      EXPECT_EQ(actual.errorStreams, expected.errorStreams) << what;
      detected += actual.detected() ? 1 : 0;
      (void)sim.simulate(stuck[next++ % stuck.size()]);
    }
    EXPECT_GT(detected, 20u);
    for (std::size_t w = 0; w < pats.wordCount(); ++w) {
      EXPECT_EQ(sim.goodBatch(w), good[w]) << "word " << w;
    }
  }
}

}  // namespace
}  // namespace scandiag

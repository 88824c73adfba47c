#include "sim/bridge_faults.hpp"

#include <gtest/gtest.h>

#include "bist/prpg.hpp"
#include "diagnosis/experiment_driver.hpp"
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
  const FaultResponse r = simulateBridge(sim, {f.a, f.b, BridgeKind::WiredAnd});
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
  const FaultResponse r = simulateBridge(sim, {f.a, f.b, BridgeKind::ADominatesB});
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
    const FaultResponse r = simulateBridge(sim, bridge);
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
  EXPECT_THROW(simulateBridge(sim, {f.a, f.a, BridgeKind::WiredAnd}), std::invalid_argument);
  EXPECT_THROW(simulateBridge(sim, {f.a, static_cast<GateId>(999), BridgeKind::WiredAnd}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scandiag

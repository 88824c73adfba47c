#include "netlist/cone_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>

#include "common/rng.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// a ── g1 ──┬── ff0
//           └── g2 ── ff1
// b ── g3 ───── ff2
struct Fixture {
  Netlist nl{"cone"};
  GateId a, b, g1, g2, g3, ff0, ff1, ff2;

  Fixture() {
    a = nl.addInput("a");
    b = nl.addInput("b");
    ff0 = nl.addDff("ff0");
    ff1 = nl.addDff("ff1");
    ff2 = nl.addDff("ff2");
    g1 = nl.addGate(GateType::Not, "g1", {a});
    g2 = nl.addGate(GateType::Buf, "g2", {g1});
    g3 = nl.addGate(GateType::Not, "g3", {b});
    nl.setDffInput(ff0, g1);
    nl.setDffInput(ff1, g2);
    nl.setDffInput(ff2, g3);
    nl.markOutput(g3);
    nl.validate();
  }
};

TEST(ConeAnalysis, ReachesOnlyDownstreamDffs) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.a);
  EXPECT_TRUE(cone.reachableDffs.test(0));
  EXPECT_TRUE(cone.reachableDffs.test(1));
  EXPECT_FALSE(cone.reachableDffs.test(2));
  // Cone gates: g1 and g2, in level order.
  ASSERT_EQ(cone.gates.size(), 2u);
  EXPECT_EQ(cone.gates[0], f.g1);
  EXPECT_EQ(cone.gates[1], f.g2);
  EXPECT_TRUE(cone.reachableOutputs.empty());
}

TEST(ConeAnalysis, MidConeSite) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.g2);
  EXPECT_FALSE(cone.reachableDffs.test(0));  // g2 only feeds ff1
  EXPECT_TRUE(cone.reachableDffs.test(1));
  ASSERT_EQ(cone.gates.size(), 1u);
  EXPECT_EQ(cone.gates[0], f.g2);
}

TEST(ConeAnalysis, PrimaryOutputRecorded) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.b);
  EXPECT_TRUE(cone.reachableDffs.test(2));
  ASSERT_EQ(cone.reachableOutputs.size(), 1u);
  EXPECT_EQ(cone.reachableOutputs[0], f.g3);
}

TEST(ConeAnalysis, PropagationStopsAtDff) {
  // ff0's Q feeds g; a fault on g's driver must not "wrap around" through the
  // sequential edge back into ff0's cone.
  Netlist nl;
  const GateId ff0 = nl.addDff("ff0");
  const GateId ff1 = nl.addDff("ff1");
  const GateId g = nl.addGate(GateType::Not, "g", {ff0});
  nl.setDffInput(ff0, g);  // self-loop through the flop
  nl.setDffInput(ff1, g);
  nl.markOutput(ff1);
  nl.validate();
  const Levelization lev = levelize(nl);
  const FaultCone cone = computeCone(nl, lev, g);
  EXPECT_TRUE(cone.reachableDffs.test(0));
  EXPECT_TRUE(cone.reachableDffs.test(1));
  EXPECT_EQ(cone.gates.size(), 1u);  // g itself only — no transitive walk via ff0
}

TEST(ConeAnalysis, MatchesBruteForceOnGeneratedCircuit) {
  const Netlist nl = generateNamedCircuit("s344");
  const Levelization lev = levelize(nl);
  const NetlistImage& image = *nl.image();
  for (GateId site = 0; site < nl.gateCount(); site += 7) {
    const FaultCone cone = computeCone(nl, lev, site);
    // Brute-force BFS.
    std::vector<bool> visited(nl.gateCount(), false);
    std::vector<GateId> queue{site};
    visited[site] = true;
    BitVector dffs(nl.dffs().size());
    while (!queue.empty()) {
      const GateId g = queue.back();
      queue.pop_back();
      for (GateId u : image.fanouts(g)) {
        if (nl.gate(u).type == GateType::Dff) {
          // Recorded even when u == site (self-capture via feedback).
          for (std::size_t k = 0; k < nl.dffs().size(); ++k)
            if (nl.dffs()[k] == u) dffs.set(k);
          visited[u] = true;
          continue;
        }
        if (visited[u]) continue;
        visited[u] = true;
        queue.push_back(u);
      }
    }
    EXPECT_EQ(cone.reachableDffs, dffs) << "site " << nl.gateName(site);
  }
}

// Breadth-first reference with a fresh visited array per site: the cone
// contract (level-ordered gates, captured DFFs, outputs in outputs() order)
// spelled out without stamps or reuse.
FaultCone referenceCone(const Netlist& nl, const std::vector<std::size_t>& ordinal,
                        GateId site) {
  FaultCone cone;
  cone.reachableDffs = BitVector(nl.dffs().size());
  std::vector<bool> visited(nl.gateCount(), false);
  std::deque<GateId> queue{site};
  visited[site] = true;
  while (!queue.empty()) {
    const GateId g = queue.front();
    queue.pop_front();
    if (!isSourceType(nl.gate(g).type)) cone.gates.push_back(g);
    for (GateId u : nl.image()->fanouts(g)) {
      if (nl.gate(u).type == GateType::Dff) {
        cone.reachableDffs.set(ordinal[u]);
        visited[u] = true;
      } else if (!visited[u]) {
        visited[u] = true;
        queue.push_back(u);
      }
    }
  }
  const auto& level = nl.levelization().level;
  std::sort(cone.gates.begin(), cone.gates.end(), [&](GateId a, GateId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });
  for (GateId out : nl.outputs())
    if (visited[out]) cone.reachableOutputs.push_back(out);
  return cone;
}

TEST(ConeAnalysis, ReusedWalkerMatchesFreshWalk) {
  struct Case {
    const char* circuit;
    std::size_t sites;  // 0 = every gate
  };
  for (const Case c : {Case{"s953", 0}, Case{"s9234", 0}, Case{"s38417", 2000}}) {
    const Netlist nl = generateNamedCircuit(c.circuit);
    std::vector<std::size_t> ordinal(nl.gateCount(), 0);
    for (std::size_t k = 0; k < nl.dffs().size(); ++k) ordinal[nl.dffs()[k]] = k;
    std::vector<GateId> sites;
    if (c.sites == 0) {
      for (GateId g = 0; g < nl.gateCount(); ++g) sites.push_back(g);
    } else {
      Xoroshiro128 rng(0xC0DE);
      for (std::size_t i = 0; i < c.sites; ++i)
        sites.push_back(static_cast<GateId>(rng.nextBelow(nl.gateCount())));
    }
    // Started 100 walks before the 32-bit epoch wraps, so every circuit
    // walks across the wrap with stale stamps from the epochs before it.
    ConeWalker walker(nl, nl.levelization(), std::numeric_limits<std::uint32_t>::max() - 100);
    for (const GateId site : sites) {
      const FaultCone got = walker.walk(site);
      const FaultCone want = referenceCone(nl, ordinal, site);
      ASSERT_EQ(got.gates, want.gates) << c.circuit << " site " << nl.gateName(site);
      ASSERT_EQ(got.reachableDffs, want.reachableDffs) << c.circuit << " site " << site;
      ASSERT_EQ(got.reachableOutputs, want.reachableOutputs) << c.circuit << " site " << site;
    }
  }
}

TEST(ConeAnalysis, ConeSpanStatistics) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.a);
  const std::vector<std::size_t> order = {0, 1, 2};  // identity ordering
  const ConeSpan span = coneSpan(cone, order, 3);
  EXPECT_EQ(span.cells, 2u);
  EXPECT_EQ(span.firstPos, 0u);
  EXPECT_EQ(span.lastPos, 1u);
  EXPECT_NEAR(span.spanFraction, 2.0 / 3.0, 1e-12);
}

TEST(ConeAnalysis, EmptyConeSpanIsZero) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  FaultCone cone = computeCone(f.nl, lev, f.g3);
  cone.reachableDffs.resetAll();
  const ConeSpan span = coneSpan(cone, {0, 1, 2}, 3);
  EXPECT_EQ(span.cells, 0u);
  EXPECT_EQ(span.spanFraction, 0.0);
}

}  // namespace
}  // namespace scandiag

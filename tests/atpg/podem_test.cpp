#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "bist/prpg.hpp"
#include "common/journal.hpp"
#include "netlist/cone_analysis.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

/// Detection check covering both observation sites (scan cells and POs).
bool cubeDetects(const Netlist& nl, const TestCube& cube, const FaultSite& fault) {
  PatternSet pats = patternsFromCubes(nl, {cube});
  const FaultSimulator fsim(nl, pats);
  if (fsim.simulate(fault).detected()) return true;
  // PO observation.
  const LogicSimulator sim(nl);
  std::vector<SimWord> values(nl.gateCount(), 0);
  for (GateId id = 0; id < nl.gateCount(); ++id)
    if (pats.isSource(id)) values[id] = pats.word(id, 0);
  sim.evaluate(values);
  std::vector<SimWord> good = values;
  const FaultCone cone = computeCone(nl, sim.levelization(), fault.gate);
  sim.evaluateFaulty(fault, cone, values);
  for (GateId po : nl.outputs()) {
    if ((values[po] ^ good[po]) & 1u) return true;
  }
  return false;
}

TEST(Podem, GeneratesTestForEasyFault) {
  // AND(a, b) output SA0: needs a=b=1; observed at the PO.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(GateType::And, "g", {a, b});
  const GateId ff = nl.addDff("ff");
  nl.setDffInput(ff, g);
  nl.markOutput(g);
  nl.validate();
  const PodemAtpg atpg(nl);
  const AtpgResult r = atpg.generate({g, FaultSite::kOutputPin, false});
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  EXPECT_TRUE(r.cube.care.test(a));
  EXPECT_TRUE(r.cube.care.test(b));
  EXPECT_TRUE(r.cube.value.test(a));
  EXPECT_TRUE(r.cube.value.test(b));
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // g = OR(a, NOT(a)) is constant 1: its SA1 is undetectable.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId n = nl.addGate(GateType::Not, "n", {a});
  const GateId g = nl.addGate(GateType::Or, "g", {a, n});
  nl.markOutput(g);
  nl.validate();
  const PodemAtpg atpg(nl);
  EXPECT_EQ(atpg.generate({g, FaultSite::kOutputPin, true}).outcome, AtpgOutcome::Untestable);
  // ...while its SA0 needs just any input value.
  EXPECT_EQ(atpg.generate({g, FaultSite::kOutputPin, false}).outcome, AtpgOutcome::Detected);
}

TEST(Podem, UnobservableFaultUntestable) {
  // A gate driving nothing marked as output is unobservable.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId dead = nl.addGate(GateType::Not, "dead", {a});
  const GateId live = nl.addGate(GateType::Buf, "live", {a});
  (void)dead;
  nl.markOutput(live);
  nl.validate();
  const PodemAtpg atpg(nl);
  EXPECT_EQ(atpg.generate({dead, FaultSite::kOutputPin, false}).outcome,
            AtpgOutcome::Untestable);
}

TEST(Podem, PropagatesThroughReconvergence) {
  // Classic reconvergent structure: fault must propagate through one branch
  // while the other is held non-controlling.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId c = nl.addInput("c");
  const GateId g1 = nl.addGate(GateType::And, "g1", {a, b});
  const GateId g2 = nl.addGate(GateType::Or, "g2", {g1, c});
  const GateId g3 = nl.addGate(GateType::Nand, "g3", {g2, b});
  nl.markOutput(g3);
  nl.validate();
  const PodemAtpg atpg(nl);
  const FaultSite fault{g1, FaultSite::kOutputPin, true};
  const AtpgResult r = atpg.generate(fault);
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  EXPECT_TRUE(cubeDetects(nl, r.cube, fault));
}

class PodemSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PodemSweep, EveryGeneratedCubeVerifiesBySimulation) {
  const Netlist nl = generateNamedCircuit(GetParam());
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  std::size_t detected = 0;
  for (const FaultSite& f : universe.sample(120, 0xA791)) {
    const AtpgResult r = atpg.generate(f);
    if (r.outcome != AtpgOutcome::Detected) continue;
    ++detected;
    EXPECT_TRUE(cubeDetects(nl, r.cube, f)) << describeFault(nl, f);
  }
  EXPECT_GT(detected, 60u) << "suspiciously low ATPG detection on " << GetParam();
}

TEST_P(PodemSweep, UntestableVerdictsConsistentWithRandomPatterns) {
  // Soundness of 'untestable': no random pattern may detect such a fault at
  // a scan cell (PO observation is checked inside cubeDetects-style logic
  // implicitly: scan detection is a subset of full detection, so we check
  // scan only — a scan detection alone already contradicts the verdict).
  const Netlist nl = generateNamedCircuit(GetParam());
  const PodemAtpg atpg(nl);
  const PatternSet pats = generatePatterns(nl, 256);
  const FaultSimulator fsim(nl, pats);
  for (const FaultSite& f : FaultList::enumerateCollapsed(nl).sample(120, 0xA791)) {
    if (atpg.generate(f).outcome != AtpgOutcome::Untestable) continue;
    EXPECT_FALSE(fsim.simulate(f).detected())
        << describeFault(nl, f) << " proven untestable but randomly detected";
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, PodemSweep, ::testing::Values("s298", "s526", "s953"));

TEST(Podem, CompactSetCoversItsFaults) {
  const Netlist nl = generateNamedCircuit("s526");
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const auto faults = universe.sample(100, 0xC0DE);
  const std::vector<TestCube> cubes = atpg.generateCompactSet(faults);
  ASSERT_FALSE(cubes.empty());
  EXPECT_LT(cubes.size(), faults.size());  // dropping must compact

  // Every fault is either covered by the set (at scan cells or POs, which
  // cubeDetects checks per-cube) or untestable/aborted.
  const PatternSet pats = patternsFromCubes(nl, cubes);
  const FaultSimulator fsim(nl, pats);
  std::size_t uncovered = 0;
  for (const FaultSite& f : faults) {
    if (fsim.simulate(f).detected()) continue;
    const AtpgOutcome outcome = atpg.generate(f).outcome;
    if (outcome == AtpgOutcome::Detected) {
      // Detected faults may still be PO-only observable; accept if any
      // individual cube detects them.
      bool anyCube = false;
      for (const TestCube& cube : cubes) anyCube |= cubeDetects(nl, cube, f);
      if (!anyCube) ++uncovered;
    }
  }
  EXPECT_EQ(uncovered, 0u);
}

/// FNV-1a over every search trace: outcome, decision and backtrack counts,
/// and the cube's care/value words.
std::uint64_t searchDigest(const Netlist& nl, const std::vector<FaultSite>& faults,
                           std::size_t backtrackLimit, std::uint64_t h) {
  const PodemAtpg atpg(nl);
  for (const FaultSite& f : faults) {
    const AtpgResult r = atpg.generate(f, backtrackLimit);
    h = fnv1a64(static_cast<std::uint64_t>(r.outcome), h);
    h = fnv1a64(r.stats.decisions, h);
    h = fnv1a64(r.stats.backtracks, h);
    for (const BitVector* bits : {&r.cube.care, &r.cube.value}) {
      h = fnv1a64(bits->size(), h);
      for (std::size_t w = 0; w < bits->wordCount(); ++w) h = fnv1a64(bits->word(w), h);
    }
  }
  return h;
}

TEST(Podem, SearchMatchesParentTraces) {
  // Pins the exact search (decision order, backtracks, cubes), not just the
  // cubes' validity: a reordered search yields different valid cubes, which
  // moves ATPG pattern counts and confidence downstream.
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  const Netlist s953 = generateNamedCircuit("s953");
  const Netlist s1423 = generateNamedCircuit("s1423");
  const auto f953 = FaultList::enumerateCollapsed(s953).sample(200, 0x5EA4C4);
  const auto f1423 = FaultList::enumerateCollapsed(s1423).sample(200, 0x5EA4C4);

  const std::uint64_t fullLimit =
      searchDigest(s1423, f1423, 5000, searchDigest(s953, f953, 5000, kBasis));
  // Limit 8 makes the hard faults abort mid-search.
  const std::uint64_t tightLimit =
      searchDigest(s1423, f1423, 8, searchDigest(s953, f953, 8, kBasis));

  // The defect pipeline's shape: capture-path (DFF D-pin) faults.
  const Netlist s9234 = generateNamedCircuit("s9234");
  std::vector<FaultSite> dPins;
  for (std::size_t k = 0; k < s9234.dffs().size(); k += 8)
    for (const bool stuckAt : {false, true}) dPins.push_back({s9234.dffs()[k], 0, stuckAt});
  const std::uint64_t capturePath = searchDigest(s9234, dPins, 2000, kBasis);

  // Recorded from the full-circuit implication this search replaced; the
  // sets include Untestable (both limits) and Aborted (limit 8) outcomes.
  EXPECT_EQ(fullLimit, 0x708d4df36f28c3a8ULL);
  EXPECT_EQ(tightLimit, 0xb216ab3dee04b01eULL);
  EXPECT_EQ(capturePath, 0xc4a27f5a7e35ce8cULL);
}

TEST(Podem, CubeApplyFillsDeterministically) {
  const Netlist nl = generateNamedCircuit("s298");
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  AtpgResult r;
  for (const FaultSite& f : universe.sample(20, 3)) {
    r = atpg.generate(f);
    if (r.outcome == AtpgOutcome::Detected) break;
  }
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  const PatternSet a = patternsFromCubes(nl, {r.cube}, 42);
  const PatternSet b = patternsFromCubes(nl, {r.cube}, 42);
  const PatternSet c = patternsFromCubes(nl, {r.cube}, 43);
  bool sameAb = true, anyDiffAc = false;
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (!a.isSource(id)) continue;
    sameAb &= (a.word(id, 0) == b.word(id, 0));
    anyDiffAc |= (a.word(id, 0) != c.word(id, 0));
  }
  EXPECT_TRUE(sameAb);
  EXPECT_TRUE(anyDiffAc);  // different fill seed changes only X bits
}

}  // namespace
}  // namespace scandiag

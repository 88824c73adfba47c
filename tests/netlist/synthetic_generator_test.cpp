#include "netlist/synthetic_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/bench_writer.hpp"
#include "netlist/cone_analysis.hpp"
#include "netlist/levelizer.hpp"
#include "bist/prpg.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {
namespace {

class ProfileSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileSweep, CountsMatchProfileExactly) {
  const Iscas89Profile& profile = iscas89Profile(GetParam());
  const Netlist nl = generateCircuit(profile);
  EXPECT_EQ(nl.inputs().size(), profile.numInputs);
  EXPECT_EQ(nl.dffs().size(), profile.numDffs);
  EXPECT_EQ(nl.combGateCount(), profile.numGates);
  EXPECT_EQ(nl.outputs().size(), profile.numOutputs);
  EXPECT_NO_THROW(nl.validate());
}

TEST_P(ProfileSweep, EveryGateIsObserved) {
  const Netlist nl = generateNamedCircuit(GetParam());
  const NetlistImage& image = *nl.image();
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (isSourceType(nl.gate(id).type)) continue;
    const bool isPo = std::find(nl.outputs().begin(), nl.outputs().end(), id) !=
                      nl.outputs().end();
    EXPECT_TRUE(isPo || !image.fanouts(id).empty())
        << "dangling gate " << nl.gateName(id) << " in " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileSweep,
                         ::testing::Values("s27", "s208", "s298", "s344", "s349", "s382",
                                           "s386", "s400", "s420", "s444", "s510", "s526",
                                           "s641", "s713", "s820", "s832", "s838", "s953",
                                           "s1196", "s1238", "s1423", "s1488", "s1494",
                                           "s5378", "s9234"));

TEST(SyntheticGenerator, DeterministicForSameSeed) {
  const Netlist a = generateNamedCircuit("s953");
  const Netlist b = generateNamedCircuit("s953");
  EXPECT_EQ(writeBenchString(a), writeBenchString(b));
}

TEST(SyntheticGenerator, DifferentNamesProduceDifferentStructure) {
  // Equal-size custom profiles with different names must differ (the seed is
  // mixed with the circuit name).
  Iscas89Profile p1{"alpha", 8, 4, 12, 100};
  Iscas89Profile p2{"beta", 8, 4, 12, 100};
  EXPECT_NE(writeBenchString(generateCircuit(p1)), writeBenchString(generateCircuit(p2)));
}

TEST(SyntheticGenerator, UnknownProfileNameThrows) {
  EXPECT_THROW(generateNamedCircuit("s99999"), std::invalid_argument);
}

TEST(SyntheticGenerator, RespectsLevelBound) {
  const Netlist nl = generateNamedCircuit("s1423");
  const Levelization lev = levelize(nl);
  EXPECT_LE(lev.maxLevel, 6u + 1);  // +1 slack for observability-sweep fanins
}

TEST(SyntheticGenerator, FailingCellsAreClustered) {
  // The property the whole paper rests on: a fault's *error-capturing* cells
  // occupy a small span of the (ordinal-ordered) scan chain. Structural cones
  // are wider (hubs/global wires create the heavy tail), so the test measures
  // the spans of actually failing cells under fault simulation and judges the
  // median.
  const Netlist nl = generateNamedCircuit("s9234");
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  std::vector<double> spans;
  for (const FaultSite& f : universe.sample(600, 0xC10C)) {
    const FaultResponse r = sim.simulate(f);
    if (r.failingCellCount() < 2) continue;
    const auto cells = r.failingCells.toIndices();
    spans.push_back(static_cast<double>(cells.back() - cells.front() + 1) /
                    static_cast<double>(nl.dffs().size()));
  }
  ASSERT_GT(spans.size(), 50u);
  std::nth_element(spans.begin(), spans.begin() + spans.size() / 2, spans.end());
  EXPECT_LT(spans[spans.size() / 2], 0.30)
      << "typical failing-cell sets span most of the chain — clustering is broken";
}

TEST(SyntheticGenerator, TinyCustomProfileWorks) {
  Iscas89Profile tiny{"tiny", 2, 1, 1, 3};
  const Netlist nl = generateCircuit(tiny);
  EXPECT_EQ(nl.combGateCount(), 3u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(SyntheticGenerator, InvalidProfileRejected) {
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 0, 1, 1, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 0, 1, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 1, 0, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 1, 1, 0}), std::invalid_argument);
}

TEST(Iscas89Profiles, TableContainsTheSixLargest) {
  for (const std::string& name : sixLargestIscas89()) {
    EXPECT_NO_THROW(iscas89Profile(name));
  }
  EXPECT_EQ(sixLargestIscas89().size(), 6u);
  EXPECT_EQ(d695Iscas89Modules().size(), 8u);
}

}  // namespace
}  // namespace scandiag

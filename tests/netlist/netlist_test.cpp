#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bist/prpg.hpp"
#include "netlist/fault_sites.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/netlist_image.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {
namespace {

TEST(GateType, NamesRoundTrip) {
  for (GateType t : {GateType::Input, GateType::Dff, GateType::Buf, GateType::Not,
                     GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                     GateType::Xor, GateType::Xnor, GateType::Const0, GateType::Const1}) {
    const auto back = gateTypeFromName(gateTypeName(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
}

TEST(GateType, ParsingIsCaseInsensitiveAndKnowsBuff) {
  EXPECT_EQ(gateTypeFromName("nand"), GateType::Nand);
  EXPECT_EQ(gateTypeFromName("Dff"), GateType::Dff);
  EXPECT_EQ(gateTypeFromName("BUFF"), GateType::Buf);
  EXPECT_FALSE(gateTypeFromName("MUX").has_value());
}

TEST(Netlist, BuildSmallCircuit) {
  Netlist nl("t");
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId ff = nl.addDff("ff");
  const GateId g = nl.addGate(GateType::Nand, "g", {a, b, ff});
  nl.setDffInput(ff, g);
  nl.markOutput(g);
  nl.validate();

  EXPECT_EQ(nl.gateCount(), 4u);
  EXPECT_EQ(nl.combGateCount(), 1u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.findByName("g"), g);
  EXPECT_EQ(nl.findByName("nope"), kInvalidGate);
  EXPECT_EQ(nl.gateName(ff), "ff");
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist nl;
  nl.addInput("x");
  EXPECT_THROW(nl.addInput("x"), std::invalid_argument);
  EXPECT_THROW(nl.addDff("x"), std::invalid_argument);
}

TEST(Netlist, ArityChecked) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  EXPECT_THROW(nl.addGate(GateType::Not, "n", {a, b}), std::invalid_argument);
  EXPECT_THROW(nl.addGate(GateType::And, "g", {}), std::invalid_argument);
  EXPECT_NO_THROW(nl.addGate(GateType::And, "g4", {a, b, a, b}));
}

TEST(Netlist, DffMustUseAddDff) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  EXPECT_THROW(nl.addGate(GateType::Dff, "ff", {a}), std::invalid_argument);
}

TEST(Netlist, UnconnectedDffFailsValidation) {
  Netlist nl;
  nl.addInput("a");
  nl.addDff("ff");
  EXPECT_THROW(nl.validate(), std::invalid_argument);
}

TEST(Netlist, UnresolvedFaninRejected) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  EXPECT_THROW(nl.addGate(GateType::Buf, "b", {a + 10}), std::invalid_argument);
}

TEST(Netlist, FanoutsComputedAndRefreshedAfterMutation) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId g1 = nl.addGate(GateType::Not, "g1", {a});
  EXPECT_EQ(nl.image()->fanouts(a).size(), 1u);
  const GateId g2 = nl.addGate(GateType::Buf, "g2", {a});
  EXPECT_EQ(nl.image()->fanouts(a).size(), 2u);
  (void)g1;
  (void)g2;
}

void expectFreshLevelization(const Netlist& nl, const std::string& step) {
  const Levelization fresh = levelize(nl);
  const Levelization& cached = nl.levelization();
  EXPECT_EQ(cached.order, fresh.order) << step;
  EXPECT_EQ(cached.level, fresh.level) << step;
  EXPECT_EQ(cached.maxLevel, fresh.maxLevel) << step;
}

TEST(Netlist, LevelizationCacheFollowsMutation) {
  Netlist nl("lev");
  const GateId a = nl.addInput("a");
  const GateId ff = nl.addDff("ff");
  const GateId g1 = nl.addGate(GateType::And, "g1", {a, ff});
  nl.setDffInput(ff, g1);
  nl.validate();
  expectFreshLevelization(nl, "validate");

  // Each mutator drops the cached levelization; the next read rebuilds it.
  const GateId b = nl.addInput("b");
  expectFreshLevelization(nl, "addInput");
  const GateId ff2 = nl.addDff("ff2");
  expectFreshLevelization(nl, "addDff");
  const GateId g2 = nl.addGate(GateType::Not, "g2", {g1});
  const GateId g3 = nl.addGate(GateType::Or, "g3", {b, ff2});
  expectFreshLevelization(nl, "addGate");
  nl.setDffInput(ff2, g3);
  expectFreshLevelization(nl, "setDffInput");
  nl.appendFanin(g3, g2);  // g3 moves from level 1 to level 3
  expectFreshLevelization(nl, "appendFanin");
  EXPECT_EQ(nl.levelization().level[g3], 3u);

  // A copy shares the cache until it is mutated; the original keeps its own.
  const Levelization* original = &nl.levelization();
  Netlist copy = nl;
  EXPECT_EQ(&copy.levelization(), original);
  copy.addGate(GateType::Buf, "g4", {g3});
  expectFreshLevelization(copy, "copy addGate");
  EXPECT_EQ(&nl.levelization(), original);
  EXPECT_EQ(nl.levelization().level.size(), nl.gateCount());
  expectFreshLevelization(nl, "original after copy mutation");

  // A cycle made after a successful validate() is still caught.
  nl.validate();
  nl.appendFanin(g1, g2);  // g1 -> g2 -> g1
  EXPECT_THROW(nl.validate(), std::invalid_argument);
  EXPECT_THROW(nl.levelization(), std::invalid_argument);
}

TEST(Netlist, NeverValidatedNetlistSimulatesLikeTheReference) {
  // Hand-built and never validated: the simulator levelizes on first use.
  Netlist nl("raw");
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId ff0 = nl.addDff("ff0");
  const GateId ff1 = nl.addDff("ff1");
  const GateId g1 = nl.addGate(GateType::Nand, "g1", {a, ff0});
  const GateId g2 = nl.addGate(GateType::Xor, "g2", {g1, b, ff1});
  const GateId g3 = nl.addGate(GateType::Nor, "g3", {g1, g2});
  nl.setDffInput(ff0, g3);
  nl.setDffInput(ff1, g2);
  nl.markOutput(g3);
  const PatternSet pats = generatePatterns(nl, 100);
  const FaultSimulator fsim(nl, pats);
  const FaultList faults = FaultList::enumerateAll(nl);
  for (const FaultSite& fault : faults.faults()) {
    const FaultResponse got = fsim.simulate(fault);
    const FaultResponse want = fsim.simulateReference(fault);
    EXPECT_EQ(got.failingCells, want.failingCells) << describeFault(nl, fault);
    EXPECT_EQ(got.failingCellOrdinals, want.failingCellOrdinals) << describeFault(nl, fault);
    EXPECT_EQ(got.errorStreams, want.errorStreams) << describeFault(nl, fault);
  }
}

TEST(Netlist, AppendFaninOnlyOnVariableArityGates) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId n = nl.addGate(GateType::Not, "n", {a});
  const GateId g = nl.addGate(GateType::And, "g", {a, b});
  EXPECT_THROW(nl.appendFanin(n, b), std::invalid_argument);
  nl.appendFanin(g, n);
  EXPECT_EQ(nl.gate(g).fanins.size(), 3u);
  EXPECT_EQ(nl.image()->fanouts(n).size(), 1u);
}

TEST(Netlist, MarkOutputDeduplicates) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  nl.markOutput(a);
  nl.markOutput(a);
  EXPECT_EQ(nl.outputs().size(), 1u);
}

TEST(Netlist, ConstantGates) {
  Netlist nl;
  const GateId c0 = nl.addGate(GateType::Const0, "zero", {});
  const GateId c1 = nl.addGate(GateType::Const1, "one", {});
  const GateId g = nl.addGate(GateType::Or, "g", {c0, c1});
  nl.markOutput(g);
  nl.validate();
  EXPECT_TRUE(isSourceType(nl.gate(c0).type));
  EXPECT_TRUE(isSourceType(nl.gate(c1).type));
}

// a, b, c inputs; g = AND(a, b), h = OR(g, c) feeds ff, n = NOT(ff) is the
// one output, d = NAND(b, n) drives nothing. Every mutation below changes
// the collapsed universe, so a stale cache cannot pass for a fresh one.
struct FaultCacheFixture {
  Netlist nl{"faults"};
  GateId a, b, c, ff, g, h, n, d;
  FaultCacheFixture() {
    a = nl.addInput("a");
    b = nl.addInput("b");
    c = nl.addInput("c");
    ff = nl.addDff("ff");
    g = nl.addGate(GateType::And, "g", {a, b});
    h = nl.addGate(GateType::Or, "h", {g, c});
    n = nl.addGate(GateType::Not, "n", {ff});
    d = nl.addGate(GateType::Nand, "d", {b, n});
    nl.setDffInput(ff, h);
    nl.markOutput(n);
    nl.validate();
  }
};

TEST(NetlistFaultCache, ValidateFillsItAndCopiesShareIt) {
  const FaultCacheFixture f;
  // A copy taken after validate() reads the very same vector, so validate()
  // filled it: a lazily filled cache would be enumerated twice.
  const Netlist copy = f.nl;
  ASSERT_TRUE(copy.collapsedFaults() != nullptr);
  EXPECT_EQ(copy.collapsedFaults()->data(), f.nl.collapsedFaults()->data());
  EXPECT_EQ(FaultList::enumerateCollapsed(copy).faults().data(), f.nl.collapsedFaults()->data());
  EXPECT_EQ(*f.nl.collapsedFaults(), enumerateFaultSites(f.nl, /*collapse=*/true));
}

TEST(NetlistFaultCache, EveryMutationOfACopyDropsIt) {
  const FaultCacheFixture f;
  const std::vector<FaultSite> before = *f.nl.collapsedFaults();
  const std::vector<std::pair<std::string, std::function<void(Netlist&)>>> mutations = {
      {"addGate", [&](Netlist& nl) { nl.addGate(GateType::Xor, "x", {f.a, f.c}); }},
      {"appendFanin", [&](Netlist& nl) { nl.appendFanin(f.h, f.a); }},
      {"markOutput", [&](Netlist& nl) { nl.markOutput(f.d); }},
      {"setDffInput", [&](Netlist& nl) { nl.setDffInput(f.ff, f.g); }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    Netlist copy = f.nl;
    (void)copy.collapsedFaults();  // shared with the original until mutated
    mutate(copy);
    const std::vector<FaultSite> fresh = enumerateFaultSites(copy, /*collapse=*/true);
    EXPECT_EQ(*copy.collapsedFaults(), fresh);
    EXPECT_NE(fresh, before);
    EXPECT_EQ(*f.nl.collapsedFaults(), before);  // the original keeps its own
  }
}

}  // namespace
}  // namespace scandiag

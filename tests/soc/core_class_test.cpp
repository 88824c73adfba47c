// Structural hashing + core-class index tests (test_soc).
//
// The dedup machinery is only sound if the hash discriminates structure
// (changing one gate type changes the class) while ignoring names (two
// renamed copies share a class) — both directions are tested here, plus the
// determinism, permutation-invariance, and counter contracts the sweep
// protocol leans on.

#include "soc/core_class.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"
#include "soc/meta_scan_builder.hpp"
#include "soc/soc_builder.hpp"

namespace scandiag {
namespace {

/// Two-input mux-ish block; `mid` lets the near-miss test flip one gate type
/// while keeping the wiring byte-for-byte identical.
Netlist tinyNetlist(const std::string& prefix, GateType mid) {
  Netlist nl;
  nl.setName(prefix);
  const GateId a = nl.addInput(prefix + "_a");
  const GateId b = nl.addInput(prefix + "_b");
  const GateId ff = nl.addDff(prefix + "_ff");
  const GateId g = nl.addGate(mid, prefix + "_g", {a, b});
  const GateId h = nl.addGate(GateType::Nand, prefix + "_h", {g, ff});
  nl.setDffInput(ff, h);
  nl.markOutput(h);
  nl.validate();
  return nl;
}

TEST(StructuralNetlistHash, DeterministicAcrossGenerations) {
  const Netlist first = generateNamedCircuit("s298");
  const Netlist second = generateNamedCircuit("s298");
  EXPECT_EQ(structuralNetlistHash(first), structuralNetlistHash(second));
}

TEST(StructuralNetlistHash, DifferentModulesDiffer) {
  EXPECT_NE(structuralNetlistHash(generateNamedCircuit("s298")),
            structuralNetlistHash(generateNamedCircuit("s344")));
}

TEST(StructuralNetlistHash, NamesDoNotEnterTheHash) {
  const Netlist left = tinyNetlist("left", GateType::And);
  const Netlist right = tinyNetlist("completely_different", GateType::And);
  EXPECT_EQ(structuralNetlistHash(left), structuralNetlistHash(right));
}

TEST(StructuralNetlistHash, NearMissOneGateTypeChangesTheHash) {
  // Same wiring, same names, same counts — only gate g's type differs.
  const Netlist andVariant = tinyNetlist("m", GateType::And);
  const Netlist orVariant = tinyNetlist("m", GateType::Or);
  EXPECT_NE(structuralNetlistHash(andVariant), structuralNetlistHash(orVariant));
}

TEST(CoreClassIndex, ReplicatedSocCollapsesToOneClass) {
  const Soc soc = buildReplicatedSoc("s298", 5, 2);
  const auto before = obs::MetricsRegistry::instance().snapshot();
  const CoreClassIndex index(soc);
  const auto after = obs::MetricsRegistry::instance().snapshot();

  ASSERT_EQ(index.classCount(), 1u);
  EXPECT_EQ(index.representative(0), 0u);
  EXPECT_EQ(index.instancesOf(0).size(), 5u);
  for (std::size_t k = 0; k < soc.coreCount(); ++k) EXPECT_EQ(index.classOf(k), 0u);
  if constexpr (obs::kMetricsCompiled) {
    EXPECT_EQ(after.counter(obs::Counter::CoreClassMisses) -
                  before.counter(obs::Counter::CoreClassMisses),
              1u);
    EXPECT_EQ(after.counter(obs::Counter::CoreClassHits) -
                  before.counter(obs::Counter::CoreClassHits),
              4u);
  }
}

TEST(CoreClassIndex, ReplicatedSocSharesOneNetlistObject) {
  const Soc soc = buildReplicatedSoc("s344", 4, 2);
  for (std::size_t k = 1; k < soc.coreCount(); ++k) {
    EXPECT_EQ(soc.core(0).netlist.get(), soc.core(k).netlist.get());
  }
}

TEST(CoreClassIndex, RepeatedModulesInMixedSocShareAClass) {
  const Soc soc = buildSocFromModules("mix", {"s298", "s344", "s298", "s344", "s298"}, 2);
  const CoreClassIndex index(soc);
  ASSERT_EQ(index.classCount(), 2u);
  EXPECT_EQ(index.classOf(0), index.classOf(2));
  EXPECT_EQ(index.classOf(0), index.classOf(4));
  EXPECT_EQ(index.classOf(1), index.classOf(3));
  EXPECT_NE(index.classOf(0), index.classOf(1));
  EXPECT_EQ(index.instancesOf(index.classOf(0)), (std::vector<std::size_t>{0, 2, 4}));
}

TEST(CoreClassIndex, InstancePermutationPreservesClassesAndHashes) {
  const Soc forward = buildSocFromModules("fwd", {"s298", "s344", "s298"}, 2);
  const Soc reversed = buildSocFromModules("rev", {"s344", "s298", "s298"}, 2);
  const CoreClassIndex fi(forward);
  const CoreClassIndex ri(reversed);
  ASSERT_EQ(fi.classCount(), 2u);
  ASSERT_EQ(ri.classCount(), 2u);
  // Ordinals follow first appearance, so they swap — but the hash of the
  // class holding each module is permutation-invariant.
  EXPECT_EQ(fi.classHash(fi.classOf(0)), ri.classHash(ri.classOf(1)));
  EXPECT_EQ(fi.classHash(fi.classOf(1)), ri.classHash(ri.classOf(0)));
}

TEST(CoreClassIndex, HashMatchDedupsWithoutSharedPointers) {
  // Two instances built from separate generator calls: distinct Netlist
  // objects, same structure. The identity fast path cannot fire; the hash
  // match must.
  std::vector<CoreInstance> cores(2);
  cores[0].name = "a";
  cores[0].netlist = std::make_shared<const Netlist>(generateNamedCircuit("s298"));
  cores[1].name = "b";
  cores[1].netlist = std::make_shared<const Netlist>(generateNamedCircuit("s298"));
  ASSERT_NE(cores[0].netlist.get(), cores[1].netlist.get());

  std::size_t offset = 0;
  std::vector<std::size_t> cellCounts;
  for (auto& c : cores) {
    c.cellOffset = offset;
    offset += c.numCells();
    cellCounts.push_back(c.numCells());
  }
  const Soc soc("two-copies", std::move(cores), buildMetaChains(cellCounts, 1));
  const CoreClassIndex index(soc);
  EXPECT_EQ(index.classCount(), 1u);
}

}  // namespace
}  // namespace scandiag

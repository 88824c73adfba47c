// Golden regression values: the full pipeline is deterministic (explicit
// seeds everywhere, integer arithmetic up to the final division), so these
// exact candidate/actual sums must reproduce on any platform. A change here
// means the *behaviour* of some stage changed — generator, PRPG, fault
// simulator, partitioners, session engine, or pruner — and EXPERIMENTS.md
// needs regeneration. Update the constants only after confirming the change
// is intentional.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/scandiag.hpp"

namespace scandiag {
namespace {

TEST(GoldenValues, S953Table1StyleSums) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc = presets::table1Workload();
  wc.numFaults = 200;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  ASSERT_EQ(work.responses.size(), 200u);

  struct Expect {
    SchemeKind scheme;
    std::uint64_t candidates;
  };
  const Expect expectations[] = {
      {SchemeKind::IntervalBased, 1421},
      {SchemeKind::RandomSelection, 1018},
      {SchemeKind::TwoStep, 896},
  };
  for (const Expect& e : expectations) {
    const DiagnosisPipeline pipeline(work.topology, presets::table1(e.scheme, 8));
    const DrReport r = pipeline.evaluate(work.responses);
    EXPECT_EQ(r.sumCandidates, e.candidates) << schemeName(e.scheme);
    EXPECT_EQ(r.sumActual, 632u) << schemeName(e.scheme);
    EXPECT_EQ(r.faults, 200u);
  }
}

TEST(GoldenValues, S9234TwoStepWithAndWithoutPruning) {
  const Netlist nl = generateNamedCircuit("s9234");
  WorkloadConfig wc = presets::table2Workload();
  wc.numFaults = 200;
  const CircuitWorkload work = prepareWorkload(nl, wc);

  const DiagnosisPipeline plain(work.topology, presets::table2(SchemeKind::TwoStep, false));
  const DrReport a = plain.evaluate(work.responses);
  EXPECT_EQ(a.sumCandidates, 490u);
  EXPECT_EQ(a.sumActual, 474u);

  const DiagnosisPipeline pruned(work.topology, presets::table2(SchemeKind::TwoStep, true));
  const DrReport b = pruned.evaluate(work.responses);
  EXPECT_EQ(b.sumCandidates, 474u);  // pruning reaches perfect resolution here
  EXPECT_EQ(b.sumActual, 474u);
}

TEST(GoldenValues, GeneratedNetlistFingerprint) {
  // Cheap structural fingerprint of every profile's reconstruction: any
  // generator change shows up here before it confuses a DR comparison
  // downstream.
  const std::map<std::string, std::uint64_t> expected{
      {"s27", 0x9b475cc4dd36ddbeULL}, {"s208", 0x83092c7c236b880fULL},
      {"s298", 0xe864c780c6088dc2ULL}, {"s344", 0x2fa41bca41e6cdffULL},
      {"s349", 0xe20b152195d43264ULL}, {"s382", 0x7f7fb37bf506b463ULL},
      {"s386", 0xb4af91fcc27d3b15ULL}, {"s400", 0x7389491aa6ce9e09ULL},
      {"s420", 0x85b74f9a3d7f0073ULL}, {"s444", 0x501fca7b10f0b824ULL},
      {"s510", 0xd413f6082bc7520dULL}, {"s526", 0x6c9c1743ecc3a7dcULL},
      {"s641", 0xcca273bd1a343fa0ULL}, {"s713", 0xac7edd9d3d60a0c1ULL},
      {"s820", 0xe59d545fffeba5ebULL}, {"s832", 0x602a2b623eeeb8f9ULL},
      {"s838", 0xa9ef7d2f7252b1cfULL}, {"s953", 0xb6cd5024a69d89c8ULL},
      {"s1196", 0x303231646f759ce3ULL}, {"s1238", 0x191afa2934028c8aULL},
      {"s1423", 0x8622b05ba88d7a77ULL}, {"s1488", 0xa351ab501df89707ULL},
      {"s1494", 0xbfb13e7179b5f59fULL}, {"s5378", 0x63cde476b9287385ULL},
      {"s9234", 0x8ef32434cbbde264ULL}, {"s13207", 0x097001e72cad8149ULL},
      {"s15850", 0x652c7c09cb4fec70ULL}, {"s35932", 0x4c5f32ee2608c4a1ULL},
      {"s38417", 0xf7e950ac4913f885ULL}, {"s38584", 0x29ffe4512c01a906ULL},
  };
  ASSERT_EQ(expected.size(), iscas89Profiles().size());
  for (const Iscas89Profile& profile : iscas89Profiles()) {
    const Netlist nl = generateNamedCircuit(profile.name);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (GateId id = 0; id < nl.gateCount(); ++id) {
      hash ^= static_cast<std::uint64_t>(nl.gate(id).type);
      hash *= 0x100000001b3ULL;
      for (GateId f : nl.gate(id).fanins) {
        hash ^= f;
        hash *= 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(hash, expected.at(std::string(profile.name)))
        << "netlist generator output changed for " << profile.name
        << "; new fingerprint = 0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace scandiag

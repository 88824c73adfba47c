#include "sim/fault_list.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/journal.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// a,b both fan out to g (AND) and h (OR).
struct FanoutFixture {
  Netlist nl;
  GateId a, b, g, h;
  FanoutFixture() {
    a = nl.addInput("a");
    b = nl.addInput("b");
    g = nl.addGate(GateType::And, "g", {a, b});
    h = nl.addGate(GateType::Or, "h", {a, b});
    nl.markOutput(g);
    nl.markOutput(h);
  }
};

std::size_t countFaults(const FaultList& list, GateId gate, bool output) {
  std::size_t n = 0;
  for (const FaultSite& f : list.faults())
    if (f.gate == gate && f.isOutputFault() == output) ++n;
  return n;
}

TEST(FaultList, StemFaultsOnEveryObservedGate) {
  FanoutFixture f;
  const FaultList list = FaultList::enumerateAll(f.nl);
  EXPECT_EQ(countFaults(list, f.a, true), 2u);
  EXPECT_EQ(countFaults(list, f.g, true), 2u);
}

TEST(FaultList, BranchFaultsOnlyAtFanoutStems) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId g = nl.addGate(GateType::Not, "g", {a});  // a has fanout 1
  const GateId h = nl.addGate(GateType::Buf, "h", {g});
  const GateId k = nl.addGate(GateType::Not, "k", {g});  // g has fanout 2
  nl.markOutput(h);
  nl.markOutput(k);
  const FaultList list = FaultList::enumerateAll(nl);
  EXPECT_EQ(countFaults(list, g, false), 0u);  // no branch faults on g's input
  EXPECT_EQ(countFaults(list, h, false), 2u);  // branches on h's input (from g)
  EXPECT_EQ(countFaults(list, k, false), 2u);
}

TEST(FaultList, CollapsingDropsControlledInputFaults) {
  FanoutFixture f;
  const FaultList all = FaultList::enumerateAll(f.nl);
  const FaultList collapsed = FaultList::enumerateCollapsed(f.nl);
  EXPECT_LT(collapsed.size(), all.size());
  // AND input SA0 collapses into the stem; SA1 branches survive.
  for (const FaultSite& fault : collapsed.faults()) {
    if (fault.gate == f.g && !fault.isOutputFault()) {
      EXPECT_TRUE(fault.stuckAt);
    }
    if (fault.gate == f.h && !fault.isOutputFault()) {
      EXPECT_FALSE(fault.stuckAt);
    }
  }
}

TEST(FaultList, UnobservedStemSkipped) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId g = nl.addGate(GateType::Not, "g", {a});  // dangling
  (void)g;
  const FaultList list = FaultList::enumerateAll(nl);
  EXPECT_EQ(countFaults(list, g, true), 0u);
  EXPECT_EQ(countFaults(list, a, true), 2u);  // a is observed (drives g)
}

TEST(FaultList, DffPinsGetBranchFaultsWhenDriverFansOut) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId ff1 = nl.addDff("ff1");
  const GateId ff2 = nl.addDff("ff2");
  nl.setDffInput(ff1, a);
  nl.setDffInput(ff2, a);
  nl.markOutput(ff1);
  nl.markOutput(ff2);
  const FaultList list = FaultList::enumerateCollapsed(nl);
  EXPECT_EQ(countFaults(list, ff1, false), 2u);
  EXPECT_EQ(countFaults(list, ff2, false), 2u);
}

TEST(FaultList, SampleIsDeterministicAndDistinct) {
  const Netlist nl = generateNamedCircuit("s526");
  const FaultList list = FaultList::enumerateCollapsed(nl);
  const auto s1 = list.sample(50, 123);
  const auto s2 = list.sample(50, 123);
  ASSERT_EQ(s1.size(), 50u);
  EXPECT_TRUE(std::equal(s1.begin(), s1.end(), s2.begin()));
  std::set<std::tuple<GateId, int, bool>> distinct;
  for (const FaultSite& f : s1) distinct.insert({f.gate, f.pin, f.stuckAt});
  EXPECT_EQ(distinct.size(), 50u);
  const auto s3 = list.sample(50, 124);
  EXPECT_FALSE(std::equal(s1.begin(), s1.end(), s3.begin()));
}

TEST(FaultList, SampleLargerThanUniverseReturnsAll) {
  FanoutFixture f;
  const FaultList list = FaultList::enumerateCollapsed(f.nl);
  const auto s = list.sample(100000, 7);
  EXPECT_EQ(s.size(), list.size());
}

TEST(FaultList, UniverseScalesWithCircuit) {
  const Netlist small = generateNamedCircuit("s298");
  const Netlist large = generateNamedCircuit("s5378");
  EXPECT_GT(FaultList::enumerateCollapsed(large).size(),
            FaultList::enumerateCollapsed(small).size() * 10);
}

// ---- Pinned universes -------------------------------------------------------

std::uint64_t digestSites(const std::vector<FaultSite>& sites, std::uint64_t h) {
  for (const FaultSite& f : sites) {
    h = fnv1a64(static_cast<std::uint64_t>(f.gate), h);
    h = fnv1a64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.pin)), h);
    h = fnv1a64(static_cast<std::uint64_t>(f.stuckAt), h);
  }
  return h;
}

TEST(FaultList, UniversesMatchParentDigests) {
  // Every (gate, pin, stuckAt) of both universes, in order, and of three
  // samples of the collapsed one. Recorded while the enumeration still lived
  // in sim/ and re-walked the netlist on every call, so moving it into the
  // netlist's cache provably kept every universe and every sample. The sweep
  // digest covers more samples (sizes from 0 to the whole universe, the
  // batch workloads' 4 x 2,000, three seeds); it was recorded while sample()
  // still shuffled a copy of the universe, so the sparse shuffle provably
  // draws the same faults in the same order.
  struct Expected {
    const char* circuit;
    std::size_t collapsed, all;
    std::uint64_t collapsedDigest, allDigest, sampleDigest, sweepDigest;
  };
  const Expected expected[] = {
      {"s27", 44, 58, 0xd351274fa115c8a4ULL, 0xf406672afcd131a4ULL, 0xc4c28d181a02e299ULL,
       0x8c7c7ff0c0ca17b2ULL},
      {"s953", 1637, 2200, 0x9465e09f630b83c2ULL, 0x23a96517a279d77dULL, 0xac199af6f7b13708ULL,
       0x64aa265fac35693cULL},
      {"s9234", 22904, 30614, 0xc7aefea7b788a831ULL, 0xdb9fd881c9149834ULL,
       0x4cd15a671c0a73b4ULL, 0x44c2b3ea715f49c6ULL},
      {"s35932", 68000, 90550, 0xda20e3f25497d58bULL, 0x3a92b8da4dc898dcULL,
       0x814d36e1d873d1e0ULL, 0x21ee50dc65790125ULL},
      {"s38417", 91934, 123148, 0x9d7f1f393b041f31ULL, 0xcdfac9828394ae09ULL,
       0xaa75608d37d8e78bULL, 0x48a046a683243155ULL},
  };
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  for (const Expected& e : expected) {
    SCOPED_TRACE(e.circuit);
    const Netlist nl = generateNamedCircuit(e.circuit);
    const FaultList collapsed = FaultList::enumerateCollapsed(nl);
    const FaultList all = FaultList::enumerateAll(nl);
    std::uint64_t sampled = kBasis;
    for (const std::size_t n : {std::size_t{24}, std::size_t{1600}, collapsed.size() + 1})
      sampled = digestSites(collapsed.sample(n, 0xFA17), sampled);
    const std::size_t size = collapsed.size();
    std::uint64_t swept = kBasis;
    for (const std::uint64_t seed :
         {std::uint64_t{1}, std::uint64_t{7919}, std::uint64_t{0xBE7C}}) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{64}, size / 3,
                                  size - 1, size, std::size_t{8000}}) {
        swept = digestSites(collapsed.sample(n, seed), swept);
      }
    }
    EXPECT_EQ(collapsed.size(), e.collapsed);
    EXPECT_EQ(all.size(), e.all);
    EXPECT_EQ(digestSites(collapsed.faults(), kBasis), e.collapsedDigest);
    EXPECT_EQ(digestSites(all.faults(), kBasis), e.allDigest);
    EXPECT_EQ(sampled, e.sampleDigest);
    EXPECT_EQ(swept, e.sweepDigest) << std::hex << "0x" << swept;
  }
}

}  // namespace
}  // namespace scandiag

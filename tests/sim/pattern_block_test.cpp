#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "bist/prpg.hpp"
#include "common/journal.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;

/// Every source's words, in GateId order.
std::uint64_t digestPatterns(const Netlist& nl, const PatternSet& pats, std::uint64_t h) {
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (!pats.isSource(id)) continue;
    for (std::size_t w = 0; w < pats.wordCount(); ++w) h = fnv1a64(pats.word(id, w), h);
  }
  return h;
}

TEST(PatternBlock, MatchesParentDigests) {
  // The dense pattern block, the block-LFSR fill, the source-only cube fill
  // and the good machine read off the image's program, pinned to digests
  // recorded when every source had its own BitVector, the LFSR stepped one
  // bit at a time and the good machine evaluated gate by gate in levelized
  // order. PRPG sets of 100 patterns (default degree 24, m = 17) and 193
  // (degree 17, m = 14); cubes from PODEM on a 40-fault sample.
  struct Expected {
    const char* circuit;
    std::size_t cubes;
    std::uint64_t prpg, cubePatterns, captures;
  };
  const Expected expected[] = {
      {"s27", 32, 0x2c509a73c1fd5ba2ULL, 0x00aa4b98e5eb6789ULL, 0x7deba16a3e87e100ULL},
      {"s953", 31, 0xc8a5f5bfcf0ececbULL, 0xd87c9f102dbd0248ULL, 0x6792cc667424e8b6ULL},
      {"s9234", 27, 0x8a48b51c2a212960ULL, 0x7bf439e7ce700c71ULL, 0x64039495cac19254ULL},
      {"s35932", 38, 0x510a2584760d3fe7ULL, 0x22936fbcc718c6dfULL, 0x9cf45700c43bab6eULL},
      {"s38417", 38, 0x0152bfb1df284481ULL, 0x052cf27d420eadc0ULL, 0x81bcbe485358551eULL},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(e.circuit);
    const Netlist nl = generateNamedCircuit(e.circuit);
    PrpgConfig deg17;
    deg17.lfsr.degree = 17;
    deg17.seed = 0x1D;
    const PatternSet prpg = generatePatterns(nl, 100);
    const std::uint64_t prpgDigest =
        digestPatterns(nl, generatePatterns(nl, 193, deg17), digestPatterns(nl, prpg, kBasis));

    const PodemAtpg atpg(nl);
    std::vector<TestCube> cubes;
    for (const FaultSite& f : FaultList::enumerateCollapsed(nl).sample(40, 0xC0BE)) {
      const AtpgResult r = atpg.generate(f, 200);
      if (r.outcome == AtpgOutcome::Detected) cubes.push_back(r.cube);
    }
    const std::uint64_t cubeDigest = digestPatterns(nl, patternsFromCubes(nl, cubes, 0xF1), kBasis);

    std::uint64_t captureDigest = kBasis;
    for (const BitVector& stream : FaultSimulator(nl, prpg).goodCaptures()) {
      captureDigest = fnv1a64(stream.size(), captureDigest);
      for (std::size_t w = 0; w < stream.wordCount(); ++w)
        captureDigest = fnv1a64(stream.word(w), captureDigest);
    }

    EXPECT_EQ(cubes.size(), e.cubes);
    EXPECT_EQ(prpgDigest, e.prpg);
    EXPECT_EQ(cubeDigest, e.cubePatterns);
    EXPECT_EQ(captureDigest, e.captures);
  }
}

TEST(PatternBlock, RowsFollowThePrpgOrder) {
  const Netlist nl = generateNamedCircuit("s298");
  PatternSet pats(nl, 70);
  ASSERT_EQ(pats.sourceCount(), nl.dffs().size() + nl.inputs().size());
  ASSERT_EQ(pats.wordCount(), 2u);
  // Row k is DFF ordinal k; row dffs().size() + i is primary input i.
  pats.setRowBit(0, 69, true);
  pats.setRowBit(nl.dffs().size(), 3, true);
  EXPECT_TRUE(pats.bit(nl.dffs()[0], 69));
  EXPECT_EQ(pats.word(nl.dffs()[0], 1), SimWord{1} << 5);
  EXPECT_TRUE(pats.bit(nl.inputs()[0], 3));
  EXPECT_EQ(pats.rowWord(nl.dffs().size(), 0), SimWord{1} << 3);
  pats.setRowBit(0, 69, false);
  EXPECT_EQ(pats.word(nl.dffs()[0], 1), 0u);
  EXPECT_THROW(pats.setRowBit(0, 70, true), std::invalid_argument);
  EXPECT_EQ(pats.word(nl.dffs()[0], 2), 0u);  // beyond the set
}

}  // namespace
}  // namespace scandiag

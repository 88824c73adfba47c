#include "bist/prpg.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

/// Every word of one source's stimulus.
std::vector<SimWord> words(const PatternSet& pats, GateId id) {
  std::vector<SimWord> out;
  for (std::size_t w = 0; w < pats.wordCount(); ++w) out.push_back(pats.word(id, w));
  return out;
}

TEST(Prpg, FillsEverySourceStream) {
  const Netlist nl = generateNamedCircuit("s298");
  const PatternSet pats = generatePatterns(nl, 100);
  EXPECT_EQ(pats.numPatterns(), 100u);
  EXPECT_EQ(pats.wordCount(), 2u);
  EXPECT_EQ(pats.sourceCount(), nl.inputs().size() + nl.dffs().size());
  for (const auto* sources : {&nl.inputs(), &nl.dffs()}) {
    for (GateId id : *sources) {
      EXPECT_TRUE(pats.isSource(id));
      EXPECT_EQ(pats.word(id, 1) >> 36, 0u);  // lanes 100..127 stay clear
    }
  }
}

TEST(Prpg, BlockFillMatchesBitByBitStream) {
  // Pattern t's stimulus is the LFSR's next sources bits, DFFs first, then
  // primary inputs; the block fill must reproduce Lfsr::step exactly, and
  // leave the lanes past the last pattern clear.
  PrpgConfig wide, narrow;
  wide.lfsr.degree = 17;  // m = 14
  wide.seed = 0x1D;
  narrow.lfsr.degree = 32;  // m = 1
  narrow.seed = 0xBEEF;
  for (const char* circuit : {"s27", "s953"}) {
    const Netlist nl = generateNamedCircuit(circuit);
    for (const PrpgConfig& config : {PrpgConfig{}, wide, narrow}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{100},
                                  std::size_t{129}}) {
        const PatternSet pats = generatePatterns(nl, n, config);
        Lfsr lfsr(config.lfsr, config.seed);
        for (std::size_t t = 0; t < n; ++t) {
          for (const auto* sources : {&nl.dffs(), &nl.inputs()})
            for (const GateId id : *sources)
              ASSERT_EQ(pats.bit(id, t), lfsr.step()) << circuit << " n " << n << " t " << t;
        }
        if (n % 64 == 0) continue;
        for (const auto* sources : {&nl.dffs(), &nl.inputs()}) {
          for (const GateId id : *sources) EXPECT_EQ(pats.word(id, n / 64) >> (n % 64), 0u);
        }
      }
    }
  }
}

TEST(Prpg, Deterministic) {
  const Netlist nl = generateNamedCircuit("s298");
  const PatternSet a = generatePatterns(nl, 64);
  const PatternSet b = generatePatterns(nl, 64);
  for (GateId id : nl.dffs()) EXPECT_EQ(words(a, id), words(b, id));
}

TEST(Prpg, SeedChangesPatterns) {
  const Netlist nl = generateNamedCircuit("s298");
  PrpgConfig c1, c2;
  c2.seed = c1.seed + 1;
  const PatternSet a = generatePatterns(nl, 64, c1);
  const PatternSet b = generatePatterns(nl, 64, c2);
  bool anyDiff = false;
  for (GateId id : nl.dffs()) anyDiff |= (words(a, id) != words(b, id));
  EXPECT_TRUE(anyDiff);
}

TEST(Prpg, BitsRoughlyBalanced) {
  const Netlist nl = generateNamedCircuit("s953");
  const PatternSet pats = generatePatterns(nl, 512);
  std::size_t ones = 0, total = 0;
  for (GateId id : nl.dffs()) {
    for (const SimWord w : words(pats, id)) ones += static_cast<std::size_t>(std::popcount(w));
    total += 512;
  }
  const double density = static_cast<double>(ones) / static_cast<double>(total);
  EXPECT_NEAR(density, 0.5, 0.02);
}

TEST(Prpg, DistinctCellsGetDistinctStreams) {
  const Netlist nl = generateNamedCircuit("s953");
  const PatternSet pats = generatePatterns(nl, 128);
  const auto& dffs = nl.dffs();
  for (std::size_t i = 1; i < dffs.size(); ++i) {
    EXPECT_NE(words(pats, dffs[0]), words(pats, dffs[i]));
  }
}

}  // namespace
}  // namespace scandiag

// Spellings of every spec the repository itself passes — in CI, the README,
// tests, benches and the repository benchmark — and the values they parse
// to, recorded from the parsers as they stood before spec fields joined the
// command line's one number rule. The rule may refuse malformed text; it
// must not move the meaning of any spec in use.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "inject/defect_zoo.hpp"
#include "soc/sharded_sweep.hpp"
#include "soc/soc_builder.hpp"

namespace scandiag {
namespace {

TEST(SpecSpellings, DefectSpecsKeepTheirValues) {
  struct Case {
    const char* spec;
    std::size_t k;
    bool bridges;
    bool opens;
    double intermittentP;
    std::uint64_t seed;
  };
  constexpr std::uint64_t kDefaultSeed = 0xDEFEC7;
  for (const Case& c : {
           Case{"1", 1, false, false, 0.0, kDefaultSeed},
           Case{"2", 2, false, false, 0.0, kDefaultSeed},
           Case{"3", 3, false, false, 0.0, kDefaultSeed},
           Case{"2,bridge", 2, true, false, 0.0, kDefaultSeed},
           Case{"3,bridge,open", 3, true, true, 0.0, kDefaultSeed},
           Case{"2,bridge,open", 2, true, true, 0.0, kDefaultSeed},
           Case{"2,intermittent:0.5", 2, false, false, 0.5, kDefaultSeed},
           Case{"2,intermittent:0.25", 2, false, false, 0.25, kDefaultSeed},
           Case{"3,intermittent:0.5", 3, false, false, 0.5, kDefaultSeed},
           Case{"4,bridge,open,intermittent:0.5", 4, true, true, 0.5, kDefaultSeed},
           Case{"4,bridge,open,intermittent:0.5,seed:0xC1", 4, true, true, 0.5, 0xC1},
           Case{"2,bridge,open,intermittent:0.5,seed:0x123", 2, true, true, 0.5, 0x123},
       }) {
    SCOPED_TRACE(c.spec);
    const DefectMix mix = parseDefectSpec(c.spec);
    EXPECT_EQ(mix.k, c.k);
    EXPECT_EQ(mix.bridges, c.bridges);
    EXPECT_EQ(mix.opens, c.opens);
    EXPECT_EQ(mix.intermittentP, c.intermittentP);
    EXPECT_EQ(mix.seed, c.seed);
  }
}

TEST(SpecSpellings, SocSpecsBuildTheSameSoc) {
  struct Case {
    const char* spec;
    const char* name;
    std::size_t cores;
    std::size_t cells;
    std::size_t chains;
  };
  for (const Case& c : {
           Case{"soc1", "soc1", 6, 6173, 1},
           Case{"d695", "d695", 8, 6384, 8},
           Case{"rep:s298x2:w1", "rep-s298x2", 2, 28, 1},
           Case{"rep:s298x3:w2", "rep-s298x3", 3, 42, 2},
           Case{"rep:s298x4", "rep-s298x4", 4, 56, 1},
           Case{"rep:s298x4:w8", "rep-s298x4", 4, 56, 8},
           Case{"rep:s9234x2:w32", "rep-s9234x2", 2, 422, 32},
           Case{"rep:s9234x2:w40", "rep-s9234x2", 2, 422, 40},
           Case{"rep:s5378x8:w8", "rep-s5378x8", 8, 1432, 8},
           Case{"rep:s5378x32:w8", "rep-s5378x32", 32, 5728, 8},
           Case{"rep:s38584x16:w8", "rep-s38584x16", 16, 22816, 8},
           Case{"rep:s38584x702:w8", "rep-s38584x702", 702, 1001052, 8},
       }) {
    SCOPED_TRACE(c.spec);
    const Soc soc = buildSocFromSpec(c.spec);
    EXPECT_EQ(soc.name(), c.name);
    EXPECT_EQ(soc.coreCount(), c.cores);
    EXPECT_EQ(soc.totalCells(), c.cells);
    EXPECT_EQ(soc.topology().numChains(), c.chains);
  }
}

TEST(SpecSpellings, ShardSpecsKeepTheirValues) {
  for (std::uint32_t count : {1u, 2u, 4u}) {
    for (std::uint32_t index = 0; index < count; ++index) {
      const std::string spec = std::to_string(index) + "/" + std::to_string(count);
      const SocShardSpec shard = parseShardSpec(spec);
      EXPECT_EQ(shard.index, index) << spec;
      EXPECT_EQ(shard.count, count) << spec;
    }
  }
}

}  // namespace
}  // namespace scandiag

// Robustness sweep over mutated inputs: whatever garbage the parsers see,
// they must either parse it or throw std::invalid_argument — never crash,
// never loop, never return a half-built netlist that fails validate().

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

std::string mutate(const std::string& base, Xoroshiro128& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(6);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.nextBelow(s.size());
    switch (rng.nextBelow(4)) {
      case 0:  // flip a character
        s[pos] = static_cast<char>(' ' + rng.nextBelow(95));
        break;
      case 1:  // delete a span
        s.erase(pos, 1 + rng.nextBelow(8));
        break;
      case 2:  // duplicate a span
        s.insert(pos, s.substr(pos, 1 + rng.nextBelow(8)));
        break;
      default:  // insert noise
        s.insert(pos, "()=,#\nDFF");
        break;
    }
  }
  return s;
}

TEST(ParserRobustness, MutatedBenchNeverCrashes) {
  const std::string base = writeBenchString(generateNamedCircuit("s298"));
  Xoroshiro128 rng(0xF022);
  std::size_t parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = mutate(base, rng);
    try {
      const Netlist nl = parseBenchString(text, "fuzz");
      nl.validate();  // anything accepted must be structurally sound
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 300u);
  EXPECT_GT(rejected, 50u);  // mutations usually break something
}

TEST(ParserRobustness, TruncatedBenchPrefixes) {
  const std::string base = writeBenchString(generateNamedCircuit("s344"));
  for (std::size_t cut = 0; cut < base.size(); cut += 97) {
    try {
      (void)parseBenchString(base.substr(0, cut), "prefix");
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

TEST(ParserRobustness, PathologicalInputs) {
  for (const char* text : {"", "\n\n\n", "####", "a=b", "INPUT()", "OUTPUT(,)",
                           "x = AND(", "= AND(a)", "INPUT(a) OUTPUT(a)",
                           "x = DFF(x)"}) {
    try {
      (void)parseBenchString(text, "p");
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

TEST(ParserRobustness, SelfLoopDffIsLegal) {
  // x = DFF(x): a flop feeding itself through no logic is sequential, legal.
  const Netlist nl = parseBenchString("OUTPUT(x)\nx = DFF(x)\n", "loop");
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

}  // namespace
}  // namespace scandiag

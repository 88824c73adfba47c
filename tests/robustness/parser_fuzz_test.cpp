// Randomized-input smoke: 100 seeded corruptions of each external format
// (tester session logs, .bench netlists) must come back as a clean typed
// error or a structurally valid parse — never a crash, an over-allocation,
// or a half-built object. Complements the mutation sweep in
// tests/netlist/parser_robustness_test.cpp by checking the *typed* error
// contract (ParseError with a line number, FileNotFoundError for bad paths).

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"
#include "diagnosis/tester_log.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

std::string corrupt(const std::string& base, Xoroshiro128& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(8);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.nextBelow(s.size());
    switch (rng.nextBelow(5)) {
      case 0:  // flip a byte (printable range)
        s[pos] = static_cast<char>(' ' + rng.nextBelow(95));
        break;
      case 1:  // truncate the record mid-line
        s.erase(pos);
        break;
      case 2:  // delete a span
        s.erase(pos, 1 + rng.nextBelow(16));
        break;
      case 3:  // blow up an embedded number (out-of-range indices)
        s.insert(pos, "99999999999");
        break;
      default:  // inject garbage tokens
        s.insert(pos, " -7 0x zz\nverdict 9 9 maybe\n");
        break;
    }
  }
  return s;
}

std::string sampleTesterLog() {
  const ScanTopology topo = ScanTopology::singleChain(16);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4, 4}, 16),
                                     IntervalPartitioner::fromLengths({8, 8}, 16)};
  FaultResponse r;
  r.failingCells = BitVector(16);
  r.failingCells.set(5);
  r.failingCellOrdinals.push_back(5);
  BitVector stream(4);
  stream.set(0);
  r.errorStreams.push_back(stream);
  return writeTesterLog(engine.run(parts, r));
}

TEST(ParserFuzz, HundredCorruptTesterLogs) {
  const std::string base = sampleTesterLog();
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Xoroshiro128 rng(0x10600 + seed);
    const std::string text = corrupt(base, rng);
    try {
      const TesterLog log = parseTesterLogString(text);
      // Anything accepted must be self-consistent.
      EXPECT_EQ(log.verdicts.failing.size(), log.numPartitions);
    } catch (const ParseError& e) {
      EXPECT_EQ(e.format(), "session log");
      EXPECT_GE(e.line(), 0);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);  // the mutations are not gentle
}

TEST(ParserFuzz, HundredCorruptBenchFiles) {
  const std::string base = writeBenchString(generateNamedCircuit("s298"));
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Xoroshiro128 rng(0xBE2C4 + seed);
    try {
      const Netlist nl = parseBenchString(corrupt(base, rng), "fuzz");
      nl.validate();
    } catch (const std::invalid_argument&) {
      // ParseError or a validate()-level SCANDIAG_REQUIRE; both are clean.
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);
}

TEST(ParserFuzz, MissingFilesThrowTypedError) {
  EXPECT_THROW(parseTesterLogFile("/nonexistent/tester.log"), FileNotFoundError);
  EXPECT_THROW(parseBenchFile("/nonexistent/c17.bench"), FileNotFoundError);
  try {
    parseTesterLogFile("/nonexistent/tester.log");
    FAIL() << "expected FileNotFoundError";
  } catch (const FileNotFoundError& e) {
    EXPECT_EQ(e.path(), "/nonexistent/tester.log");
  }
}

TEST(ParserFuzz, OversizedSessionHeaderRejectedBeforeAllocating) {
  EXPECT_THROW(parseTesterLogString("sessions 99999999 99999999\n"), ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 1048577 1\n"), ParseError);
}

TEST(ParserFuzz, TrailingTokensRejected) {
  EXPECT_THROW(parseTesterLogString("sessions 2 4 junk\n"), ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 2 4\nverdict 0 0 fail sig 1f junk\n"),
               ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 2 4\nverdict 0 0 fail sig 1fzz\n"), ParseError);
}

TEST(ParserFuzz, ParseErrorCarriesLineNumber) {
  try {
    parseTesterLogString("sessions 2 4\nverdict 0 9 fail\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(ParserFuzz, DffFaninArityEnforced) {
  EXPECT_THROW(parseBenchString("OUTPUT(x)\nx = DFF(a, b)\nINPUT(a)\nINPUT(b)\n", "p"),
               ParseError);
}

TEST(ParserFuzz, NumericOptionsAreWholeUnsignedNumbers) {
  EXPECT_EQ(parseUnsigned("12", "n"), 12u);
  EXPECT_EQ(parseUnsigned("0x7E57ED", "n"), 0x7E57EDu);
  EXPECT_EQ(parseUnsigned("18446744073709551615", "n"), UINT64_MAX);
  for (const char* bad : {"", "abc", "12x", "-5", "+5", " 5", "5 ", "0x", "1e3",
                          "18446744073709551616"}) {
    EXPECT_THROW(parseUnsigned(bad, "n"), std::invalid_argument) << "input: '" << bad << "'";
  }
}

}  // namespace
}  // namespace scandiag

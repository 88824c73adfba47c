#include "diagnosis/tester_log.hpp"

#include <gtest/gtest.h>

#include "bist/prpg.hpp"
#include "common/errors.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

TEST(TesterLog, ParsesVerdictsAndSignatures) {
  const TesterLog log = parseTesterLogString(R"(# demo
sessions 2 4
verdict 0 1 fail sig 1a2b
verdict 0 2 pass
verdict 1 3 fail sig ff
)");
  EXPECT_EQ(log.numPartitions, 2u);
  EXPECT_EQ(log.groupsPerPartition, 4u);
  EXPECT_TRUE(log.verdicts.failing[0].test(1));
  EXPECT_FALSE(log.verdicts.failing[0].test(2));
  EXPECT_TRUE(log.verdicts.failing[1].test(3));
  EXPECT_EQ(log.verdicts.errorSig[0][1], 0x1a2bu);
  EXPECT_EQ(log.verdicts.errorSig[1][3], 0xffu);
  EXPECT_TRUE(log.verdicts.hasSignatures);  // every failing session has a sig
}

TEST(TesterLog, UnlistedSessionsDefaultToPass) {
  const TesterLog log = parseTesterLogString("sessions 3 8\nverdict 2 7 fail\n");
  std::size_t failing = 0;
  for (const BitVector& p : log.verdicts.failing) failing += p.count();
  EXPECT_EQ(failing, 1u);
  EXPECT_FALSE(log.verdicts.hasSignatures);
}

TEST(TesterLog, MixedSignatureCoverageDisablesPruning) {
  const TesterLog log = parseTesterLogString(
      "sessions 1 4\nverdict 0 0 fail sig 12\nverdict 0 1 fail\n");
  EXPECT_FALSE(log.verdicts.hasSignatures);
}

TEST(TesterLog, ParseErrorsCarryLineNumbers) {
  for (const char* bad : {"verdict 0 0 fail\n",                  // before header
                          "sessions 0 4\n",                      // zero partitions
                          "sessions 2 4\nverdict 5 0 fail\n",    // out of range
                          "sessions 2 4\nverdict 0 0 maybe\n",   // bad result
                          "sessions 2 4\nverdict 0 0 fail sig zz\n",
                          "sessions 2 4\nbogus\n", ""}) {
    EXPECT_THROW(parseTesterLogString(bad), std::invalid_argument) << bad;
  }
  try {
    parseTesterLogString("sessions 2 4\nverdict 9 9 fail\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TesterLog, ExpectedShapeRefusesAnotherHeaderAtTheHeader) {
  // 65536 x 256 passes the parser's own caps (2^24 sessions) and would size
  // about 135 MiB of verdict tables; a caller that fixed the shape refuses it
  // on line 1, before any table exists.
  try {
    parseTesterLogString("sessions 65536 256\nverdict 70000 0 fail\n", SessionShape{8, 16});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parseTesterLogString("sessions 8 15\n", SessionShape{8, 16}), ParseError);
  const TesterLog log = parseTesterLogString("sessions 8 16\nverdict 7 15 fail\n",
                                             SessionShape{8, 16});
  EXPECT_TRUE(log.verdicts.failing[7].test(15));
  // Without an expected shape the log's own header decides.
  EXPECT_EQ(parseTesterLogString("sessions 2 4\n").numPartitions, 2u);
}

TEST(TesterLog, FileParserRefusesAnotherShapeAtTheHeader) {
  // `scandiag offline` passes its --partitions/--groups here; a zero count
  // takes the log's own. The sample log's header is "sessions 6 4" on line 11.
  const std::string path = "data/sample_session.log";
  EXPECT_EQ(parseTesterLogFile(path, SessionShape{6, 4}).groupsPerPartition, 4u);
  EXPECT_EQ(parseTesterLogFile(path, SessionShape{0, 4}).numPartitions, 6u);
  EXPECT_EQ(parseTesterLogFile(path, SessionShape{6, 0}).groupsPerPartition, 4u);
  for (const SessionShape shape : {SessionShape{6, 8}, SessionShape{8, 4}, SessionShape{0, 8}}) {
    try {
      parseTesterLogFile(path, shape);
      ADD_FAILURE() << "accepted " << shape.partitions << "x" << shape.groups;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 11);
      EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos) << e.what();
    }
  }
}

TEST(TesterLog, WriteParseRoundTrip) {
  GroupVerdicts v;
  v.failing = {BitVector(4), BitVector(4)};
  v.errorSig = {{0, 0, 0, 0}, {0, 0, 0, 0}};
  v.failing[0].set(2);
  v.failing[1].set(0);
  v.errorSig[0][2] = 0xdead;
  v.errorSig[1][0] = 0xbeef;
  v.hasSignatures = true;
  v.signatureDegree = 16;
  const TesterLog back = parseTesterLogString(writeTesterLog(v));
  EXPECT_EQ(back.verdicts.failing[0], v.failing[0]);
  EXPECT_EQ(back.verdicts.failing[1], v.failing[1]);
  EXPECT_EQ(back.verdicts.errorSig[0][2], 0xdeadu);
  EXPECT_TRUE(back.verdicts.hasSignatures);
}

// The adoption path end-to-end: tester produces per-session verdicts (here:
// simulated), logs them, and the offline flow recovers exactly the candidate
// set the integrated pipeline computes.
TEST(TesterLog, OfflineDiagnosisMatchesIntegratedPipeline) {
  const Netlist nl = generateNamedCircuit("s953");
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 6;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  config.mode = SignatureMode::Misr;

  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator sim(nl, pats);
  const std::vector<Partition> partitions = buildPartitions(config, topology.maxChainLength());
  SessionConfig sc{SignatureMode::Misr, 64};
  const SessionEngine engine(topology, sc);
  const CandidateAnalyzer analyzer(topology);

  std::size_t checked = 0;
  for (const FaultSite& f : FaultList::enumerateCollapsed(nl).sample(40, 0x106)) {
    const FaultResponse r = sim.simulate(f);
    if (!r.detected()) continue;
    ++checked;
    const GroupVerdicts verdicts = engine.run(partitions, r);
    const CandidateSet direct = analyzer.analyze(partitions, verdicts);

    // Through the log.
    const TesterLog log = parseTesterLogString(writeTesterLog(verdicts));
    const CandidateSet offline = diagnoseFromLog(topology, config, log);
    EXPECT_EQ(offline.cells, direct.cells) << describeFault(nl, f);
  }
  EXPECT_GT(checked, 15u);
}

TEST(TesterLog, OfflinePruningFromLoggedSignatures) {
  const Netlist nl = generateNamedCircuit("s953");
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 3;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  config.mode = SignatureMode::Misr;
  config.pruning = true;

  const PatternSet pats = generatePatterns(nl, 64);
  const FaultSimulator sim(nl, pats);
  const std::vector<Partition> partitions = buildPartitions(config, topology.maxChainLength());
  SessionConfig sc{SignatureMode::Misr, 64};
  const SessionEngine engine(topology, sc);
  const CandidateAnalyzer analyzer(topology);

  bool anyPruned = false;
  for (const FaultSite& f : FaultList::enumerateCollapsed(nl).sample(60, 0x107)) {
    const FaultResponse r = sim.simulate(f);
    if (!r.detected()) continue;
    const GroupVerdicts verdicts = engine.run(partitions, r);
    const CandidateSet unpruned = analyzer.analyze(partitions, verdicts);
    const TesterLog log = parseTesterLogString(writeTesterLog(verdicts));
    const CandidateSet offline = diagnoseFromLog(topology, config, log);
    EXPECT_TRUE(offline.cells.isSubsetOf(unpruned.cells));
    anyPruned |= (offline.cellCount() < unpruned.cellCount());
  }
  EXPECT_TRUE(anyPruned) << "logged signatures never enabled pruning";
}

TEST(TesterLog, ShapeMismatchRejected) {
  const ScanTopology topology = ScanTopology::singleChain(29);
  DiagnosisConfig config;
  config.numPartitions = 6;
  config.groupsPerPartition = 4;
  const TesterLog log = parseTesterLogString("sessions 2 4\nverdict 0 0 fail\n");
  EXPECT_THROW(diagnoseFromLog(topology, config, log), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag

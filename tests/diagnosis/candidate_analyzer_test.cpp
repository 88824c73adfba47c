#include "diagnosis/candidate_analyzer.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

FaultResponse makeResponse(std::size_t numCells, const std::vector<std::size_t>& failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (std::size_t c : failing) {
    r.failingCells.set(c);
    r.failingCellOrdinals.push_back(c);
    BitVector stream(4);
    stream.set(0);
    r.errorStreams.push_back(stream);
  }
  return r;
}

TEST(CandidateAnalyzer, SinglePartitionKeepsFailingGroups) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const CandidateAnalyzer analyzer(topo);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12)};
  const FaultResponse r = makeResponse(12, {5});
  const CandidateSet c = analyzer.analyze(parts, engine.run(parts, r));
  EXPECT_EQ(c.cells.toIndices(), (std::vector<std::size_t>{4, 5, 6, 7}));
}

TEST(CandidateAnalyzer, IntersectionAcrossPartitions) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const CandidateAnalyzer analyzer(topo);
  // Partition A: thirds; partition B: halves. Fail at 5: A keeps [4..7],
  // B keeps [0..5]; intersection [4,5].
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12),
                                     IntervalPartitioner::fromLengths({6, 6}, 12)};
  const FaultResponse r = makeResponse(12, {5});
  const CandidateSet c = analyzer.analyze(parts, engine.run(parts, r));
  EXPECT_EQ(c.cells.toIndices(), (std::vector<std::size_t>{4, 5}));
}

TEST(CandidateAnalyzer, MultiChainExpandsAcrossChains) {
  const ScanTopology topo = ScanTopology::blockChains(8, 2);  // two chains of 4
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const CandidateAnalyzer analyzer(topo);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({2, 2}, 4)};
  const FaultResponse r = makeResponse(8, {1});  // chain 0, position 1
  const CandidateSet c = analyzer.analyze(parts, engine.run(parts, r));
  // Positions 0-1 suspect -> cells 0,1 (chain 0) and 4,5 (chain 1).
  EXPECT_EQ(c.cells.toIndices(), (std::vector<std::size_t>{0, 1, 4, 5}));
}

TEST(CandidateAnalyzer, MismatchedVerdictsRejected) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const CandidateAnalyzer analyzer(topo);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({12}, 12)};
  GroupVerdicts verdicts;  // empty
  EXPECT_THROW(analyzer.analyze(parts, verdicts), std::invalid_argument);
}

// The soundness invariant on real workloads: in exact mode, every actually
// failing cell is a candidate, for every scheme and partition budget.
struct SoundnessParam {
  const char* circuit;
  SchemeKind scheme;
  std::size_t chains;
};

// Prints (and so names) each case by value; gtest's default dumps the raw
// bytes, which hold the circuit-name pointer and differ per run.
void PrintTo(const SoundnessParam& param, std::ostream* os) {
  *os << '(' << param.circuit << ", " << schemeName(param.scheme) << ", " << param.chains
      << ')';
}

class SoundnessSweep : public ::testing::TestWithParam<SoundnessParam> {};

TEST_P(SoundnessSweep, FailingCellsAlwaysCandidates) {
  const SoundnessParam param = GetParam();
  const Netlist nl = generateNamedCircuit(param.circuit);
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 60;
  const CircuitWorkload work = prepareWorkload(nl, wc, param.chains);
  DiagnosisConfig config;
  config.scheme = param.scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  const DiagnosisPipeline pipeline(work.topology, config);
  for (const FaultResponse& r : work.responses) {
    const FaultDiagnosis d = pipeline.diagnose(r);
    EXPECT_TRUE(r.failingCells.isSubsetOf(d.candidates.cells))
        << param.circuit << " " << schemeName(param.scheme)
        << " fault " << describeFault(nl, r.fault);
    EXPECT_GE(d.candidateCount, d.actualCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SoundnessSweep,
    ::testing::Values(SoundnessParam{"s298", SchemeKind::IntervalBased, 1},
                      SoundnessParam{"s298", SchemeKind::RandomSelection, 1},
                      SoundnessParam{"s298", SchemeKind::TwoStep, 1},
                      SoundnessParam{"s953", SchemeKind::TwoStep, 1},
                      SoundnessParam{"s953", SchemeKind::TwoStep, 4},
                      SoundnessParam{"s1423", SchemeKind::RandomSelection, 2},
                      SoundnessParam{"s1423", SchemeKind::TwoStep, 8}));

TEST(CandidateAnalyzer, MorePartitionsNeverIncreaseCandidates) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 40;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 8;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  const DiagnosisPipeline pipeline(work.topology, config);
  const auto sweep = pipeline.evaluateSweep(work.responses);
  for (std::size_t p = 1; p < sweep.size(); ++p) {
    EXPECT_LE(sweep[p], sweep[p - 1] + 1e-12) << "DR increased at partition " << p + 1;
  }
}

}  // namespace
}  // namespace scandiag

#include "diagnosis/experiment_driver.hpp"

#include <gtest/gtest.h>

#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

WorkloadConfig smallWorkload() {
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 50;
  return wc;
}

DiagnosisConfig smallConfig(SchemeKind scheme) {
  DiagnosisConfig c;
  c.scheme = scheme;
  c.numPartitions = 4;
  c.groupsPerPartition = 4;
  c.numPatterns = 64;
  return c;
}

TEST(PrepareWorkload, ProducesDetectedResponses) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  EXPECT_EQ(work.topology.numCells(), nl.dffs().size());
  EXPECT_GT(work.responses.size(), 10u);
  for (const FaultResponse& r : work.responses) {
    EXPECT_TRUE(r.detected());
    EXPECT_EQ(r.errorStreams.front().size(), 64u);  // one bit per applied pattern
  }
}

TEST(PrepareWorkload, MultiChainTopology) {
  const Netlist nl = generateNamedCircuit("s953");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload(), 4);
  EXPECT_EQ(work.topology.numChains(), 4u);
  EXPECT_EQ(work.topology.numCells(), nl.dffs().size());
}

TEST(PrepareWorkload, Deterministic) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload a = prepareWorkload(nl, smallWorkload());
  const CircuitWorkload b = prepareWorkload(nl, smallWorkload());
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].failingCells, b.responses[i].failingCells);
  }
}

TEST(BuildPartitions, CountAndValidity) {
  const auto partitions = buildPartitions(smallConfig(SchemeKind::TwoStep), 100);
  ASSERT_EQ(partitions.size(), 4u);
  for (const Partition& p : partitions) {
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.groupCount(), 4u);
  }
}

TEST(DiagnosisPipeline, EvaluateAggregatesDr) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  const DiagnosisPipeline pipeline(work.topology, smallConfig(SchemeKind::TwoStep));
  const DrReport report = pipeline.evaluate(work.responses);
  EXPECT_EQ(report.faults, work.responses.size());
  EXPECT_GE(report.dr, 0.0);  // exact mode: candidates >= actual
  EXPECT_GE(report.sumCandidates, report.sumActual);
}

TEST(DiagnosisPipeline, SweepLastEntryMatchesEvaluate) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  const DiagnosisPipeline pipeline(work.topology, smallConfig(SchemeKind::RandomSelection));
  const auto sweep = pipeline.evaluateSweep(work.responses);
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_NEAR(sweep.back(), pipeline.evaluate(work.responses).dr, 1e-12);
}

TEST(DiagnosisPipeline, SchemesShareWorkloadButDiffer) {
  const Netlist nl = generateNamedCircuit("s953");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  const DiagnosisPipeline a(work.topology, smallConfig(SchemeKind::RandomSelection));
  const DiagnosisPipeline b(work.topology, smallConfig(SchemeKind::IntervalBased));
  EXPECT_NE(a.evaluate(work.responses).dr, b.evaluate(work.responses).dr);
}

TEST(DiagnosisPipeline, UndetectedResponsesSkipped) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  std::vector<FaultResponse> padded = work.responses;
  FaultResponse undetected;
  undetected.failingCells = BitVector(work.topology.numCells());
  padded.push_back(undetected);
  const DiagnosisPipeline pipeline(work.topology, smallConfig(SchemeKind::TwoStep));
  EXPECT_EQ(pipeline.evaluate(padded).faults, work.responses.size());
}

TEST(DiagnosisPipeline, PipelineIsDeterministic) {
  const Netlist nl = generateNamedCircuit("s526");
  const CircuitWorkload work = prepareWorkload(nl, smallWorkload());
  const DiagnosisPipeline a(work.topology, smallConfig(SchemeKind::TwoStep));
  const DiagnosisPipeline b(work.topology, smallConfig(SchemeKind::TwoStep));
  EXPECT_EQ(a.evaluate(work.responses).sumCandidates,
            b.evaluate(work.responses).sumCandidates);
}

}  // namespace
}  // namespace scandiag

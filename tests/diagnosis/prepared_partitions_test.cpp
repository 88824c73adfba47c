#include "diagnosis/prepared_partitions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/superposition_pruner.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// Parity contract of the prepared-schedule hot path: everything computed
// through a pipeline's PreparedPartitionSet must be bit-identical to the
// bare-schedule conveniences (which prepare their partitions per call and
// take the reference path), for every scheme the pipeline can build.

const SchemeKind kSchemes[] = {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                               SchemeKind::TwoStep};

DiagnosisConfig configFor(SchemeKind scheme, std::size_t numPatterns) {
  DiagnosisConfig config;
  config.scheme = scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 8;
  config.numPatterns = numPatterns;
  config.pruning = true;  // forces signature computation, the table-using path
  return config;
}

TEST(PreparedPartitionSet, TablesMatchPerCallGroupTable) {
  for (const std::size_t chainLength : {2u, 7u, 29u, 211u}) {
    for (const SchemeKind scheme : kSchemes) {
      DiagnosisConfig config = configFor(scheme, 32);
      // Random selection requires a power-of-two group count <= chainLength.
      config.groupsPerPartition =
          std::min(config.groupsPerPartition, std::bit_floor(chainLength));
      const std::vector<Partition> partitions = buildPartitions(config, chainLength);
      const PreparedPartitionSet prepared(partitions);
      ASSERT_EQ(prepared.size(), partitions.size());
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        EXPECT_EQ(prepared.groupTable(p), partitions[p].groupTable())
            << schemeName(scheme) << " length " << chainLength << " partition " << p;
        EXPECT_EQ(&prepared.partition(p), &prepared.partitions()[p]);
      }
    }
  }
}

TEST(PreparedPartitionSet, EmptySet) {
  const PreparedPartitionSet prepared;
  EXPECT_TRUE(prepared.empty());
  EXPECT_EQ(prepared.size(), 0u);
  EXPECT_EQ(prepared.length(), 0u);
  const PreparedPartitionSet fromNothing{std::vector<Partition>{}};
  EXPECT_TRUE(fromNothing.empty());
  EXPECT_EQ(fromNothing.totalGroups(), 0u);
}

TEST(PreparedPartitionSet, MixedLengthsRejected) {
  // No topology has two chain lengths, so such a schedule could never be
  // scored; it is refused when prepared, not when first run.
  const std::vector<Partition> mixed{IntervalPartitioner::fromLengths({4, 4}, 8),
                                     IntervalPartitioner::fromLengths({5, 5}, 10)};
  EXPECT_THROW(PreparedPartitionSet{mixed}, std::invalid_argument);
  const PreparedPartitionSet same{{IntervalPartitioner::fromLengths({4, 4}, 8),
                                   IntervalPartitioner::fromLengths({2, 6}, 8)}};
  EXPECT_EQ(same.length(), 8u);
  EXPECT_EQ(same.totalGroups(), 4u);
}

class PreparedParityFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kPatterns = 96;
  // s953 profile, the paper's Table 1 circuit: 29-cell single chain, enough
  // faults to exercise multi-cell responses.
  static const CircuitWorkload& work() {
    static const CircuitWorkload w = [] {
      WorkloadConfig wc;
      wc.numPatterns = kPatterns;
      wc.numFaults = 60;
      return prepareWorkload(generateNamedCircuit("s953"), wc);
    }();
    return w;
  }
};

TEST_F(PreparedParityFixture, EngineRunMatchesVectorOverload) {
  for (const SchemeKind scheme : kSchemes) {
    const DiagnosisConfig config = configFor(scheme, kPatterns);
    const std::vector<Partition> partitions =
        buildPartitions(config, work().topology.maxChainLength());
    const PreparedPartitionSet prepared(partitions);

    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work().topology, sc);
    for (const FaultResponse& r : work().responses) {
      const GroupVerdicts viaPrepared = engine.run(prepared, r);
      const GroupVerdicts viaVector = engine.run(partitions, r);
      ASSERT_EQ(viaPrepared.failing, viaVector.failing) << schemeName(scheme);
      ASSERT_EQ(viaPrepared.errorSig, viaVector.errorSig) << schemeName(scheme);
      EXPECT_EQ(viaPrepared.hasSignatures, viaVector.hasSignatures);
      EXPECT_EQ(viaPrepared.signatureDegree, viaVector.signatureDegree);
    }
  }
}

TEST_F(PreparedParityFixture, MisrModeRunMatchesVectorOverload) {
  const DiagnosisConfig config = configFor(SchemeKind::TwoStep, kPatterns);
  const std::vector<Partition> partitions =
      buildPartitions(config, work().topology.maxChainLength());
  const PreparedPartitionSet prepared(partitions);

  const SessionConfig sc{SignatureMode::Misr, config.numPatterns};
  const SessionEngine engine(work().topology, sc);
  for (const FaultResponse& r : work().responses) {
    const GroupVerdicts viaPrepared = engine.run(prepared, r);
    const GroupVerdicts viaVector = engine.run(partitions, r);
    ASSERT_EQ(viaPrepared.failing, viaVector.failing);
    ASSERT_EQ(viaPrepared.errorSig, viaVector.errorSig);
  }
}

TEST_F(PreparedParityFixture, RunPartitionMatchesVectorOverload) {
  const DiagnosisConfig config = configFor(SchemeKind::RandomSelection, kPatterns);
  const std::vector<Partition> partitions =
      buildPartitions(config, work().topology.maxChainLength());
  const PreparedPartitionSet prepared(partitions);

  SessionConfig sc{SignatureMode::Exact, config.numPatterns};
  sc.computeSignatures = true;
  const SessionEngine engine(work().topology, sc);
  const FaultResponse& r = work().responses.front();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const PartitionVerdictRow viaPrepared = engine.runPartition(prepared, p, r);
    const PartitionVerdictRow viaVector = engine.runPartition(partitions[p], r);
    EXPECT_EQ(viaPrepared.failing, viaVector.failing) << "partition " << p;
    EXPECT_EQ(viaPrepared.errorSig, viaVector.errorSig) << "partition " << p;
  }
}

TEST_F(PreparedParityFixture, PrunerMatchesVectorOverload) {
  for (const SchemeKind scheme : kSchemes) {
    const DiagnosisConfig config = configFor(scheme, kPatterns);
    const std::vector<Partition> partitions =
        buildPartitions(config, work().topology.maxChainLength());
    const PreparedPartitionSet prepared(partitions);

    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work().topology, sc);
    const CandidateAnalyzer analyzer(work().topology);
    const SuperpositionPruner pruner(work().topology);
    for (const FaultResponse& r : work().responses) {
      const GroupVerdicts verdicts = engine.run(prepared, r);
      const CandidateSet candidates = analyzer.analyze(partitions, verdicts);
      PruneStats statsPrepared, statsVector;
      const CandidateSet viaPrepared =
          pruner.prune(prepared, verdicts, candidates, &statsPrepared);
      const CandidateSet viaVector =
          pruner.prune(partitions, verdicts, candidates, &statsVector);
      ASSERT_EQ(viaPrepared.positions, viaVector.positions) << schemeName(scheme);
      ASSERT_EQ(viaPrepared.cells, viaVector.cells) << schemeName(scheme);
      EXPECT_EQ(statsPrepared.atoms, statsVector.atoms);
      EXPECT_EQ(statsPrepared.prunedAtoms, statsVector.prunedAtoms);
      EXPECT_EQ(statsPrepared.prunedPositions, statsVector.prunedPositions);
      EXPECT_EQ(statsPrepared.consistent, statsVector.consistent);
    }
  }
}

TEST(PreparedPartitionSetPipeline, PipelineExposesPreparedSchedule) {
  // The pipeline's prepared() view and partitions() accessor stay consistent,
  // on a synthetic circuit small enough for an exhaustive table check.
  const Netlist nl = generateNamedCircuit("s344");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 20;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  for (const SchemeKind scheme : kSchemes) {
    const DiagnosisConfig config = configFor(scheme, wc.numPatterns);
    const DiagnosisPipeline pipeline(work.topology, config);
    ASSERT_EQ(pipeline.prepared().size(), pipeline.partitions().size());
    for (std::size_t p = 0; p < pipeline.partitions().size(); ++p) {
      EXPECT_EQ(pipeline.prepared().groupTable(p), pipeline.partitions()[p].groupTable());
    }
    // End-to-end: the prepared-path diagnose matches a hand-rolled run over
    // the bare partition vector.
    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work.topology, sc);
    const CandidateAnalyzer analyzer(work.topology);
    const SuperpositionPruner pruner(work.topology);
    for (const FaultResponse& r : work.responses) {
      const FaultDiagnosis d = pipeline.diagnose(r);
      const GroupVerdicts verdicts = engine.run(pipeline.partitions(), r);
      CandidateSet expected = analyzer.analyze(pipeline.partitions(), verdicts);
      expected = pruner.prune(pipeline.partitions(), verdicts, expected);
      EXPECT_EQ(d.candidates.positions, expected.positions) << schemeName(scheme);
      EXPECT_EQ(d.candidates.cells, expected.cells) << schemeName(scheme);
    }
  }
}

}  // namespace
}  // namespace scandiag

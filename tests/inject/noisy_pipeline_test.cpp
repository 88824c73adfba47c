// NoisyPipeline: end-to-end resilience. Zero noise must be bit-identical to
// the base pipeline; with noise the report must be thread-count deterministic
// and single-cell faults must never be exonerated or left with an empty
// candidate set.

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "inject/noisy_pipeline.hpp"
#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"

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

DiagnosisConfig smallConfig() {
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 4;
  config.groupsPerPartition = 4;
  config.numPatterns = 4;
  return config;
}

std::vector<FaultResponse> singleCellResponses(std::size_t numCells) {
  std::vector<FaultResponse> responses;
  for (std::size_t c = 0; c < numCells; ++c) responses.push_back(makeResponse(numCells, {c}));
  return responses;
}

TEST(NoisyPipeline, ZeroNoiseBitIdenticalToBasePipeline) {
  const Netlist nl = generateNamedCircuit("s298");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 40;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  DiagnosisConfig config;
  config.numPatterns = 64;
  config.numPartitions = 6;
  config.groupsPerPartition = 4;

  const DiagnosisPipeline base(work.topology, config);
  const NoisyPipeline noisy(work.topology, config, NoiseConfig{}, RetryPolicy{});

  for (std::size_t i = 0; i < work.responses.size(); ++i) {
    const FaultDiagnosis clean = base.diagnose(work.responses[i]);
    const ResilientDiagnosis resilient = noisy.diagnose(work.responses[i], i);
    EXPECT_EQ(resilient.candidates.cells.toIndices(), clean.candidates.cells.toIndices());
    EXPECT_EQ(resilient.candidateCount, clean.candidateCount);
    EXPECT_EQ(resilient.inconsistencies, 0u);
    EXPECT_EQ(resilient.retrySessions, 0u);
    EXPECT_DOUBLE_EQ(resilient.confidence, 1.0);
    EXPECT_EQ(resilient.injectedEvents, 0u);
  }

  const DrReport cleanReport = base.evaluate(work.responses);
  const NoisyDrReport noisyReport = noisy.evaluate(work.responses);
  EXPECT_EQ(noisyReport.sumCandidates, cleanReport.sumCandidates);
  EXPECT_EQ(noisyReport.sumActual, cleanReport.sumActual);
  EXPECT_DOUBLE_EQ(noisyReport.dr, cleanReport.dr);
  EXPECT_EQ(noisyReport.faults, cleanReport.faults);
}

TEST(NoisyPipeline, ReportIsThreadCountInvariant) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  NoiseConfig noise;
  noise.flipRate = 0.1;
  noise.intermittentRate = 0.05;
  RetryPolicy retry;
  retry.sessionBudget = 32;
  const NoisyPipeline pipeline(topo, smallConfig(), noise, retry);
  const std::vector<FaultResponse> responses = singleCellResponses(32);

  setGlobalThreadCount(1);
  const NoisyDrReport one = pipeline.evaluate(responses);
  setGlobalThreadCount(8);
  const NoisyDrReport eight = pipeline.evaluate(responses);
  setGlobalThreadCount(0);  // restore default

  EXPECT_EQ(one.sumCandidates, eight.sumCandidates);
  EXPECT_EQ(one.sumActual, eight.sumActual);
  EXPECT_DOUBLE_EQ(one.dr, eight.dr);
  EXPECT_DOUBLE_EQ(one.misdiagnosisRate, eight.misdiagnosisRate);
  EXPECT_DOUBLE_EQ(one.meanConfidence, eight.meanConfidence);
  EXPECT_EQ(one.totalInconsistencies, eight.totalInconsistencies);
  EXPECT_EQ(one.totalRetrySessions, eight.totalRetrySessions);
  EXPECT_EQ(one.unresolved, eight.unresolved);
}

TEST(NoisyPipeline, EvaluateStopsBeforeAnyFaultWhenCancelled) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  NoiseConfig noise;
  noise.flipRate = 0.1;
  const NoisyPipeline pipeline(topo, smallConfig(), noise, RetryPolicy{});
  CancellationToken token;
  token.cancel("test cancel");
  const auto diagnosed = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(obs::Counter::FaultsDiagnosed);
  };
  const std::uint64_t before = diagnosed();
  EXPECT_THROW(pipeline.evaluate(singleCellResponses(32), RunControl{&token, nullptr}),
               OperationCancelled);
  EXPECT_EQ(diagnosed() - before, 0u);
}

// Silencing noise (fail->pass only — intermittency, X-masking, aliasing)
// can never exonerate a single-cell fault: a silenced partition reads
// all-pass, trips AllGroupsPassing, and is retried or dropped; the surviving
// partitions' unions all contain the true cell. The only way candidates can
// come back empty is the schedule where EVERY partition was silenced, which
// reads as a consistent fault-free device (zero inconsistencies).
TEST(NoisyPipeline, SilencingNoiseNeverExoneratesSingleCellFaults) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  NoiseConfig noise;
  noise.intermittentRate = 0.25;
  noise.seed = 0xBEEF;
  const std::vector<FaultResponse> responses = singleCellResponses(32);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{32}}) {
    RetryPolicy retry;
    retry.sessionBudget = budget;
    const NoisyPipeline pipeline(topo, smallConfig(), noise, retry);
    std::size_t detections = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const ResilientDiagnosis d = pipeline.diagnose(responses[i], i);
      EXPECT_FALSE(d.misdiagnosed) << "budget " << budget << " fault " << i;
      if (d.candidateCount == 0) {
        EXPECT_EQ(d.inconsistencies, 0u)
            << "budget " << budget << " fault " << i
            << ": empty candidates despite a detected inconsistency";
      } else {
        EXPECT_TRUE(responses[i].failingCells.isSubsetOf(d.candidates.cells));
      }
      detections += d.inconsistencies > 0 ? 1 : 0;
    }
    EXPECT_GT(detections, 0u) << "noise rate too low to exercise detection";
    const NoisyDrReport report = pipeline.evaluate(responses);
    EXPECT_DOUBLE_EQ(report.misdiagnosisRate, 0.0);
  }
}

// Raw flips can also fabricate fail verdicts. A misdiagnosis then requires at
// least two injected events in one diagnosis (the true group silenced AND a
// spurious group failing in the same partition — the documented undetectable
// residual); any single-event corruption must be caught or stay a superset.
TEST(NoisyPipeline, FlipMisdiagnosisNeedsCompoundCorruption) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  NoiseConfig noise;
  noise.flipRate = 0.1;
  noise.seed = 0xBEEF;
  const std::vector<FaultResponse> responses = singleCellResponses(32);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{64}}) {
    RetryPolicy retry;
    retry.sessionBudget = budget;
    const NoisyPipeline pipeline(topo, smallConfig(), noise, retry);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const ResilientDiagnosis d = pipeline.diagnose(responses[i], i);
      if (d.injectedEvents <= 1) {
        EXPECT_FALSE(d.misdiagnosed) << "budget " << budget << " fault " << i;
        EXPECT_NE(d.candidateCount, 0u) << "budget " << budget << " fault " << i;
      } else if (d.misdiagnosed) {
        EXPECT_GE(d.injectedEvents, 2u);
      }
    }
  }
}

TEST(NoisyPipeline, RecoveryRepairsWhatDegradationCannot) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  NoiseConfig noise;
  noise.flipRate = 0.1;
  const std::vector<FaultResponse> responses = singleCellResponses(32);

  RetryPolicy without;  // budget 0
  RetryPolicy with;
  with.sessionBudget = 64;
  const NoisyPipeline degraded(topo, smallConfig(), noise, without);
  const NoisyPipeline recovered(topo, smallConfig(), noise, with);
  const NoisyDrReport d = degraded.evaluate(responses);
  const NoisyDrReport r = recovered.evaluate(responses);

  // Identical noise streams hit both pipelines (same seed, same fault keys).
  EXPECT_EQ(d.totalInconsistencies, r.totalInconsistencies);
  ASSERT_GT(d.totalInconsistencies, 0u) << "noise rate too low to exercise recovery";
  // Retrying spends sessions but repairs partitions that degradation drops:
  // candidates shrink (or stay equal) and fewer diagnoses stay unresolved.
  EXPECT_GT(r.totalRetrySessions, 0u);
  EXPECT_EQ(d.totalRetrySessions, 0u);
  EXPECT_LE(r.sumCandidates, d.sumCandidates);
  EXPECT_LE(r.unresolved, d.unresolved);
  EXPECT_GE(r.meanConfidence, d.meanConfidence);
}

TEST(NoisyPipeline, ZeroPartitionsIsRejected) {
  // An empty schedule would read as "every session passed" and exonerate
  // every true failing cell.
  const ScanTopology topo = ScanTopology::singleChain(32);
  DiagnosisConfig config = smallConfig();
  config.numPartitions = 0;
  NoiseConfig noise;
  noise.flipRate = 0.01;
  EXPECT_THROW(NoisyPipeline(topo, config, noise, RetryPolicy{}), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag

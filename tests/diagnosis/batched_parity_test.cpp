// Parity oracle for the batched MISR scorer (docs/ARCHITECTURE.md §11): the
// per-session reference path (SessionEngine::runReference) and the batched
// path the pipelines take (SessionEngine::run) must be BIT-IDENTICAL in everything observable —
// group verdicts, error signatures, diagnosis reports, and the deterministic
// counter section — across all three partitioning schemes, five circuits,
// thread counts {1, 2, 8}, with and without superposition pruning, and with
// and without injected tester noise. The CI sanitizer matrix (TSan and
// ASan+UBSan) runs this suite too, so scorer parity is also checked under
// race and UB detection.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/scandiag.hpp"
#include "inject/noisy_pipeline.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

constexpr const char* kCircuits[] = {"s298", "s344", "s526", "s953", "s9234"};
constexpr SchemeKind kSchemes[] = {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                                   SchemeKind::TwoStep};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Batch-only counters are the two the reference scorer never increments; the
/// parity contract is exact equality on every OTHER counter's delta.
bool isBatchOnly(std::size_t counterIndex) {
  return counterIndex == static_cast<std::size_t>(obs::Counter::BatchedGroupScores) ||
         counterIndex == static_cast<std::size_t>(obs::Counter::BatchContribCells);
}

void expectCounterParity(const std::array<std::uint64_t, obs::kNumCounters>& batched,
                         const std::array<std::uint64_t, obs::kNumCounters>& reference,
                         const std::string& what) {
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (isBatchOnly(i)) continue;
    EXPECT_EQ(batched[i], reference[i])
        << what << ": counter " << obs::counterName(static_cast<obs::Counter>(i));
  }
}

void expectSameVerdicts(const GroupVerdicts& a, const GroupVerdicts& b,
                        const std::string& what) {
  ASSERT_EQ(a.failing.size(), b.failing.size()) << what;
  for (std::size_t p = 0; p < a.failing.size(); ++p) {
    EXPECT_EQ(a.failing[p], b.failing[p]) << what << ": partition " << p;
  }
  EXPECT_EQ(a.hasSignatures, b.hasSignatures) << what;
  EXPECT_EQ(a.signatureDegree, b.signatureDegree) << what;
  ASSERT_EQ(a.errorSig.size(), b.errorSig.size()) << what;
  for (std::size_t p = 0; p < a.errorSig.size(); ++p) {
    EXPECT_EQ(a.errorSig[p], b.errorSig[p]) << what << ": signatures of partition " << p;
  }
}

/// Workloads are the expensive part (pattern generation + fault simulation);
/// build each circuit's once and share it across every parity dimension.
const CircuitWorkload& workloadFor(const std::string& name) {
  static std::map<std::string, CircuitWorkload>* cache =
      new std::map<std::string, CircuitWorkload>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    const Netlist nl = generateNamedCircuit(name);
    WorkloadConfig wc;
    wc.numPatterns = 64;
    wc.numFaults = name == "s9234" ? 60 : 120;
    it = cache->emplace(name, prepareWorkload(nl, wc)).first;
  }
  return it->second;
}

DiagnosisConfig configFor(SchemeKind scheme, bool pruning,
                          SignatureMode mode = SignatureMode::Exact) {
  DiagnosisConfig config;
  config.scheme = scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 8;
  config.numPatterns = 64;
  config.mode = mode;
  config.pruning = pruning;
  return config;
}

/// DiagnosisPipeline::evaluate spelled out over reference-scorer verdicts:
/// the pipeline's own analyzer (and pruner configuration), one fault at a
/// time in index order. Counts faults_diagnosed per fault as diagnose() does,
/// so every other counter delta comes from the scorer, analyzer and pruner.
DrReport referenceEvaluate(const DiagnosisPipeline& pipeline,
                           const std::vector<FaultResponse>& responses) {
  const SuperpositionPruner pruner(pipeline.topology());
  DrAccumulator acc;
  for (const FaultResponse& r : responses) {
    if (!r.detected()) continue;
    obs::count(obs::Counter::FaultsDiagnosed);
    const GroupVerdicts verdicts = pipeline.engine().runReference(pipeline.prepared(), r);
    CandidateSet candidates = pipeline.analyzer().analyze(pipeline.partitions(), verdicts);
    if (pipeline.config().pruning) {
      candidates = pruner.prune(pipeline.prepared(), verdicts, candidates);
    }
    acc.add(candidates.cellCount(), r.failingCellCount());
  }
  return DrReport{acc.dr(), acc.faults(), acc.sumCandidates(), acc.sumActual()};
}

/// NoisyPipeline::evaluate's fixed-schedule ladder spelled out over
/// reference-scorer verdicts: corrupt attempt 0, recover through corrupted
/// re-runs, reduce in fault-index order with the same formulas.
NoisyDrReport referenceNoisyEvaluate(const NoisyPipeline& noisy,
                                     const std::vector<FaultResponse>& responses) {
  const DiagnosisPipeline& pipeline = noisy.base();
  const std::vector<Partition>& partitions = pipeline.partitions();
  const VerdictCorruptor corruptor(noisy.noise());
  const DiagnosisRecovery recovery(pipeline.topology(), noisy.retry());
  DrAccumulator acc;
  NoisyDrReport report;
  double confidenceSum = 0.0;
  std::size_t misdiagnosed = 0, empty = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const FaultResponse& r = responses[i];
    if (!r.detected()) continue;
    const BitVector failing = pipeline.topology().collapseCells(r.failingCells);
    GroupVerdicts verdicts = pipeline.engine().runReference(pipeline.prepared(), r);
    corruptor.corrupt(verdicts, partitions, failing, i, /*attempt=*/0);
    const PartitionRerun rerun = [&](std::size_t p, std::size_t attempt) {
      PartitionVerdictRow row = pipeline.engine().runPartition(pipeline.prepared(), p, r);
      corruptor.corruptRow(row, partitions[p], p, failing, i, attempt);
      return row;
    };
    const RecoveredDiagnosis d = recovery.recover(partitions, verdicts, rerun);
    acc.add(d.candidates.cellCount(), r.failingCellCount());
    confidenceSum += d.confidence;
    misdiagnosed += r.failingCells.isSubsetOf(d.candidates.cells) ? 0 : 1;
    empty += d.candidates.cellCount() == 0 ? 1 : 0;
    report.unresolved += d.resolved ? 0 : 1;
    report.totalInconsistencies += d.inconsistencies.size();
    report.totalRetrySessions += d.retrySessions;
  }
  const double n = static_cast<double>(acc.faults());
  report.dr = acc.dr();
  report.faults = acc.faults();
  report.sumCandidates = acc.sumCandidates();
  report.sumActual = acc.sumActual();
  report.misdiagnosisRate = static_cast<double>(misdiagnosed) / n;
  report.emptyRate = static_cast<double>(empty) / n;
  report.meanConfidence = confidenceSum / n;
  return report;
}

std::string caseName(const std::string& circuit, SchemeKind scheme, bool pruning) {
  return circuit + "/" + schemeName(scheme) + (pruning ? "+prune" : "");
}

class BatchedParity : public ::testing::Test {
 protected:
  void TearDown() override {
    setGlobalThreadCount(0);
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(BatchedParity, VerdictsSignaturesAndCountersMatchPerFault) {
  // Engine-level oracle: for every fault, run() vs runReference() on
  // the same engine — verdict rows, signatures, and the per-fault counter
  // deltas (via DeltaCapture) must match exactly. Covers both signature
  // modes; Exact runs with pruning signatures on so errorSig is exercised.
  for (const char* circuit : kCircuits) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (SchemeKind scheme : kSchemes) {
      for (SignatureMode mode : {SignatureMode::Exact, SignatureMode::Misr}) {
        const DiagnosisPipeline pipeline(
            work.topology, configFor(scheme, /*pruning=*/mode == SignatureMode::Exact, mode));
        const SessionEngine& engine = pipeline.engine();
        std::size_t checked = 0;
        for (const FaultResponse& r : work.responses) {
          if (!r.detected()) continue;
          if (++checked > 40) break;  // per-config cap; circuits x schemes x modes cover
          const std::string what = caseName(circuit, scheme, false) +
                                   (mode == SignatureMode::Misr ? "/misr" : "/exact");
          GroupVerdicts batched, reference;
          std::array<std::uint64_t, obs::kNumCounters> batchedDeltas{}, referenceDeltas{};
          {
            obs::DeltaCapture capture;
            batched = engine.run(pipeline.prepared(), r);
            batchedDeltas = capture.deltas();
          }
          {
            obs::DeltaCapture capture;
            reference = engine.runReference(pipeline.prepared(), r);
            referenceDeltas = capture.deltas();
          }
          expectSameVerdicts(batched, reference, what);
          expectCounterParity(batchedDeltas, referenceDeltas, what);
          // The batched scorer must also account its own work: one score per
          // session of the schedule (counters exist only when compiled in).
          if constexpr (obs::kMetricsCompiled) {
            EXPECT_EQ(batchedDeltas[static_cast<std::size_t>(obs::Counter::BatchedGroupScores)],
                      pipeline.prepared().totalGroups())
                << what;
          }
        }
        ASSERT_GT(checked, 0u) << circuit;
      }
    }
  }
}

TEST_F(BatchedParity, DrReportsBitIdenticalAcrossScorersThreadsAndPruning) {
  // Pipeline-level oracle: full DR evaluation on the batched path vs the
  // same pipeline's steps over reference-scorer verdicts, at 1/2/8 threads,
  // with and without pruning. Double-precision DR values compare bitwise
  // (==), not approximately.
  for (const char* circuit : kCircuits) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (SchemeKind scheme : kSchemes) {
      for (bool pruning : {false, true}) {
        const DiagnosisPipeline batched(work.topology, configFor(scheme, pruning));
        setGlobalThreadCount(1);
        const auto before = obs::MetricsRegistry::instance().snapshot();
        const DrReport expected = referenceEvaluate(batched, work.responses);
        const auto mid = obs::MetricsRegistry::instance().snapshot();
        for (std::size_t threads : kThreadCounts) {
          setGlobalThreadCount(threads);
          const std::string what = caseName(circuit, scheme, pruning) + " @" +
                                   std::to_string(threads) + " threads";
          const DrReport actual = batched.evaluate(work.responses);
          EXPECT_EQ(expected.faults, actual.faults) << what;
          EXPECT_EQ(expected.sumCandidates, actual.sumCandidates) << what;
          EXPECT_EQ(expected.sumActual, actual.sumActual) << what;
          EXPECT_EQ(expected.dr, actual.dr) << what;
        }
        setGlobalThreadCount(1);
        // Counter deltas of one batched evaluate (at 1 thread, taken last so
        // the snapshots bracket it exactly) vs the reference evaluate.
        const auto preBatch = obs::MetricsRegistry::instance().snapshot();
        (void)batched.evaluate(work.responses);
        const auto postBatch = obs::MetricsRegistry::instance().snapshot();
        std::array<std::uint64_t, obs::kNumCounters> refDeltas{}, batDeltas{};
        for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
          refDeltas[i] = mid.counters[i] - before.counters[i];
          batDeltas[i] = postBatch.counters[i] - preBatch.counters[i];
        }
        expectCounterParity(batDeltas, refDeltas, caseName(circuit, scheme, pruning));
      }
    }
  }
}

TEST_F(BatchedParity, NoisyPipelineBitIdenticalAcrossScorers) {
  // The ±noise dimension: the corruptor perturbs *verdicts* (which the two
  // scorers produce identically) and the retry path re-runs partitions via
  // the shared per-session engine, so the whole resilient report — DR,
  // misdiagnosis rate, retry accounting — must be bit-identical too.
  NoiseConfig noise;
  noise.flipRate = 0.02;
  noise.intermittentRate = 0.01;
  noise.seed = 0xBA7C;
  RetryPolicy retry;
  retry.maxRetriesPerSession = 2;
  retry.sessionBudget = 64;
  for (const std::string circuit : {"s344", "s953"}) {
    const CircuitWorkload& work = workloadFor(circuit);
    for (SchemeKind scheme : kSchemes) {
      const NoisyPipeline batched(work.topology, configFor(scheme, false), noise, retry);
      setGlobalThreadCount(1);
      const NoisyDrReport expected = referenceNoisyEvaluate(batched, work.responses);
      for (std::size_t threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        const std::string what =
            circuit + "/" + schemeName(scheme) + "+noise @" + std::to_string(threads);
        const NoisyDrReport actual = batched.evaluate(work.responses);
        EXPECT_EQ(expected.dr, actual.dr) << what;
        EXPECT_EQ(expected.faults, actual.faults) << what;
        EXPECT_EQ(expected.sumCandidates, actual.sumCandidates) << what;
        EXPECT_EQ(expected.sumActual, actual.sumActual) << what;
        EXPECT_EQ(expected.misdiagnosisRate, actual.misdiagnosisRate) << what;
        EXPECT_EQ(expected.emptyRate, actual.emptyRate) << what;
        EXPECT_EQ(expected.meanConfidence, actual.meanConfidence) << what;
        EXPECT_EQ(expected.totalInconsistencies, actual.totalInconsistencies) << what;
        EXPECT_EQ(expected.totalRetrySessions, actual.totalRetrySessions) << what;
        EXPECT_EQ(expected.unresolved, actual.unresolved) << what;
      }
    }
  }
}

TEST_F(BatchedParity, ScratchReuseMatchesFreshScratch) {
  // A worker reuses one SessionBatchScratch across its whole fault chunk;
  // stale buffer contents from fault i must never leak into fault i+1.
  const CircuitWorkload& work = workloadFor("s526");
  const DiagnosisPipeline pipeline(work.topology, configFor(SchemeKind::TwoStep, true));
  const SessionEngine& engine = pipeline.engine();
  SessionBatchScratch reused;
  std::size_t checked = 0;
  for (const FaultResponse& r : work.responses) {
    if (!r.detected()) continue;
    if (++checked > 60) break;
    const GroupVerdicts withReuse = engine.run(pipeline.prepared(), r, &reused);
    const GroupVerdicts fresh = engine.run(pipeline.prepared(), r);
    expectSameVerdicts(withReuse, fresh, "scratch reuse fault " + std::to_string(checked));
  }
  ASSERT_GT(checked, 2u);
}

}  // namespace
}  // namespace scandiag

// Bounded-budget recovery: suspect partitions are re-run and majority-voted;
// when the budget runs out, the offending partitions are dropped and the
// candidate set widens instead of emptying.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/journal.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/recovery.hpp"
#include "inject/noisy_pipeline.hpp"
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

struct SchemeFixture {
  explicit SchemeFixture(SchemeKind scheme) : topo(ScanTopology::singleChain(24)) {
    config.scheme = scheme;
    config.numPartitions = 4;
    config.groupsPerPartition = 4;
    config.numPatterns = 4;
    parts = buildPartitions(config, topo.maxChainLength());
  }

  ScanTopology topo;
  DiagnosisConfig config;
  std::vector<Partition> parts;
  SessionEngine engine{topo, SessionConfig{SignatureMode::Exact, 4}};
};

/// Re-run that returns the clean (noiseless) row — models a transient glitch.
PartitionRerun cleanRerun(const SessionEngine& engine, const std::vector<Partition>& parts,
                          const FaultResponse& response) {
  return [&engine, &parts, &response](std::size_t p, std::size_t) {
    return engine.runPartition(parts[p], response);
  };
}

// The headline satellite guarantee: a single verdict flip at EVERY
// (partition, group) position, in either direction, across all three
// partition schemes, is either repaired by retry (fail->pass flips, which
// trigger detection) or yields a candidate superset containing the true
// failing cell — never an empty set.
TEST(DiagnosisRecovery, SingleFlipEveryPositionRepairedOrSuperset) {
  RetryPolicy policy;
  policy.maxRetriesPerSession = 2;
  policy.sessionBudget = 64;
  for (const SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const SchemeFixture f(scheme);
    const DiagnosisRecovery recovery(f.topo, policy);
    const CandidateAnalyzer analyzer(f.topo);
    for (const std::size_t cell : {std::size_t{0}, std::size_t{13}, std::size_t{23}}) {
      const FaultResponse response = makeResponse(24, {cell});
      const GroupVerdicts clean = f.engine.run(f.parts, response);
      const CandidateSet cleanCandidates = analyzer.analyze(f.parts, clean);
      for (std::size_t p = 0; p < f.parts.size(); ++p) {
        for (std::size_t g = 0; g < f.parts[p].groupCount(); ++g) {
          GroupVerdicts noisy = clean;
          const bool wasFailing = noisy.failing[p].test(g);
          noisy.failing[p].flip(g);
          const RecoveredDiagnosis d =
              recovery.recover(f.parts, noisy, cleanRerun(f.engine, f.parts, response));
          const std::string where = std::string(schemeName(scheme)) + " cell " +
                                    std::to_string(cell) + " flip p" + std::to_string(p) +
                                    " g" + std::to_string(g);
          EXPECT_GT(d.candidates.cellCount(), 0u) << where;
          EXPECT_TRUE(d.candidates.cells.test(cell)) << where;
          if (wasFailing) {
            // fail->pass always trips AllGroupsPassing on a single-cell fault
            // (each partition has exactly one failing group), and two clean
            // re-runs outvote the flip: full repair, exact clean candidates.
            EXPECT_TRUE(d.resolved) << where;
            EXPECT_EQ(d.candidates.cells.toIndices(), cleanCandidates.cells.toIndices())
                << where;
            EXPECT_EQ(d.retrySessions, 2 * f.parts[p].groupCount()) << where;
          }
        }
      }
    }
  }
}

TEST(DiagnosisRecovery, ConsistentVerdictsSpendNothing) {
  const SchemeFixture f(SchemeKind::TwoStep);
  RetryPolicy policy;
  policy.sessionBudget = 100;
  const DiagnosisRecovery recovery(f.topo, policy);
  const FaultResponse response = makeResponse(24, {7});
  const GroupVerdicts clean = f.engine.run(f.parts, response);
  std::size_t reruns = 0;
  const RecoveredDiagnosis d = recovery.recover(
      f.parts, clean, [&](std::size_t p, std::size_t) {
        ++reruns;
        return f.engine.runPartition(f.parts[p], response);
      });
  EXPECT_EQ(reruns, 0u);
  EXPECT_EQ(d.retrySessions, 0u);
  EXPECT_TRUE(d.resolved);
  EXPECT_DOUBLE_EQ(d.confidence, 1.0);
}

TEST(DiagnosisRecovery, BudgetIsNeverExceeded) {
  const SchemeFixture f(SchemeKind::TwoStep);
  RetryPolicy policy;
  policy.maxRetriesPerSession = 5;
  policy.sessionBudget = 6;  // groupCount is 4: one re-run fits, a second does not
  const DiagnosisRecovery recovery(f.topo, policy);
  const FaultResponse response = makeResponse(24, {7});
  GroupVerdicts noisy = f.engine.run(f.parts, response);
  noisy.failing[1].resetAll();  // lost fail verdict -> partition 1 suspect
  const RecoveredDiagnosis d =
      recovery.recover(f.parts, noisy, cleanRerun(f.engine, f.parts, response));
  EXPECT_LE(d.retrySessions, policy.sessionBudget);
  EXPECT_EQ(d.retrySessions, 4u);
  EXPECT_TRUE(d.candidates.cells.test(7));
}

TEST(DiagnosisRecovery, NoRerunDegradesToDroppedPartition) {
  const SchemeFixture f(SchemeKind::TwoStep);
  RetryPolicy policy;
  policy.sessionBudget = 100;
  const DiagnosisRecovery recovery(f.topo, policy);
  const FaultResponse response = makeResponse(24, {7});
  GroupVerdicts noisy = f.engine.run(f.parts, response);
  noisy.failing[1].resetAll();
  // Offline logs cannot be re-run: null rerun goes straight to degradation.
  const RecoveredDiagnosis d = recovery.recover(f.parts, noisy, nullptr);
  EXPECT_FALSE(d.resolved);
  EXPECT_EQ(d.droppedPartitions, (std::vector<std::size_t>{1}));
  EXPECT_EQ(d.retrySessions, 0u);
  EXPECT_TRUE(d.candidates.cells.test(7));
  EXPECT_LT(d.confidence, 1.0);
}

TEST(DiagnosisRecovery, PersistentLieFallsBackToDegradation) {
  const SchemeFixture f(SchemeKind::TwoStep);
  RetryPolicy policy;
  policy.maxRetriesPerSession = 2;
  policy.sessionBudget = 64;
  const DiagnosisRecovery recovery(f.topo, policy);
  const FaultResponse response = makeResponse(24, {7});
  GroupVerdicts noisy = f.engine.run(f.parts, response);
  noisy.failing[1].resetAll();
  // The tester keeps lying: every re-run of partition 1 reads all-pass too.
  const RecoveredDiagnosis d = recovery.recover(
      f.parts, noisy, [&](std::size_t p, std::size_t) {
        PartitionVerdictRow row = f.engine.runPartition(f.parts[p], response);
        if (p == 1) row.failing.resetAll();
        return row;
      });
  EXPECT_FALSE(d.resolved);
  EXPECT_EQ(d.droppedPartitions, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(d.candidates.cells.test(7));
  EXPECT_GT(d.candidates.cellCount(), 0u);
}

// Multi-cell faults fail several groups per partition, so a single lost fail
// verdict leaves that partition self-consistent while its shrunken union
// silently removes true cells from the intersection — the phantom reports
// then land on the *honest* partitions. Whenever that is detected,
// degradation must widen (leave-one-out) to a superset of every true failing
// cell; flips whose shrunken union stays consistent with every other
// partition are undetectable from verdicts alone (the documented residual)
// but must still never empty the candidate set.
TEST(DiagnosisRecovery, MultiCellLostFailVerdictWidensWhenDetected) {
  for (const SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const SchemeFixture f(scheme);
    const DiagnosisRecovery recovery(f.topo, RetryPolicy{});
    const FaultResponse response = makeResponse(24, {3, 4, 10, 17, 18, 22});
    const GroupVerdicts clean = f.engine.run(f.parts, response);
    std::size_t detected = 0;
    for (std::size_t p = 0; p < f.parts.size(); ++p) {
      for (std::size_t g = 0; g < f.parts[p].groupCount(); ++g) {
        if (!clean.failing[p].test(g)) continue;
        GroupVerdicts noisy = clean;
        noisy.failing[p].reset(g);
        const RecoveredDiagnosis d = recovery.recover(f.parts, noisy, nullptr);
        const std::string where = std::string(schemeName(scheme)) + " flip p" +
                                  std::to_string(p) + " g" + std::to_string(g);
        EXPECT_GT(d.candidates.cellCount(), 0u) << where;
        if (!d.consistent()) {
          ++detected;
          EXPECT_TRUE(response.failingCells.isSubsetOf(d.candidates.cells)) << where;
        }
      }
    }
    EXPECT_GT(detected, 0u) << schemeName(scheme);
  }
}

TEST(DiagnosisRecovery, ManyRepairsNeverUnderflowConfidenceBelowFloor) {
  // The degradation penalties are multiplicative; a long schedule where every
  // partition carries a persistent phantom fail would drive the product to
  // 0.0 and make a maximally degraded (but still superset-sound) diagnosis
  // indistinguishable from "no diagnosis". kConfidenceFloor is the lower
  // bound: the confidence must land exactly on it here, never at 0.
  const ScanTopology topo = ScanTopology::singleChain(24);
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 160;  // 0.9^160 alone is ~5e-8, far below the floor
  config.groupsPerPartition = 4;
  config.numPatterns = 4;
  const std::vector<Partition> parts = buildPartitions(config, topo.maxChainLength());
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const FaultResponse response = makeResponse(24, {7});

  GroupVerdicts noisy = engine.run(parts, response);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    // One extra (phantom) failing group per partition, never the true one.
    const std::size_t truthful = noisy.failing[p].findFirst();
    noisy.failing[p].set((truthful + 1) % parts[p].groupCount());
  }

  RetryPolicy policy;
  policy.maxRetriesPerSession = 2;
  policy.sessionBudget = 4000;
  const DiagnosisRecovery recovery(topo, policy);
  // Persistent lie: re-runs reproduce the corrupted rows, so majority voting
  // repairs nothing and every phantom survives to the degradation pass.
  const RecoveredDiagnosis d = recovery.recover(
      parts, noisy, [&](std::size_t p, std::size_t) {
        PartitionVerdictRow row = engine.runPartition(parts[p], response);
        row.failing = noisy.failing[p];
        return row;
      });
  EXPECT_GE(d.confidence, kConfidenceFloor);
  EXPECT_GT(d.confidence, 0.0);
  EXPECT_DOUBLE_EQ(d.confidence, kConfidenceFloor);
  // Degraded, not destroyed: the result still covers the true failing cell.
  EXPECT_TRUE(d.candidates.cells.test(7));
  EXPECT_FALSE(d.resolved);
}

// Regression for the defect-zoo short-circuit: deterministic compactor
// aliasing on a two-fault union loses one fail verdict per fault in
// *different* partitions, which surfaces as a DisjointFailingUnion that
// replays bit-identically — a model violation, not tester noise. Recovery
// used to burn the whole retry budget majority-voting rows that never
// change; it must now stop after the single confirming re-run and re-analyze
// the schedule in the checked union mode, keeping both true cells.
TEST(DiagnosisRecovery, ReplayStableDisjointUnionShortCircuitsToUnionAnalysis) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine{topo, SessionConfig{SignatureMode::Exact, 4}};
  // Thirds, halves, pairs — faults at cells 2 and 9.
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12),
                                     IntervalPartitioner::fromLengths({6, 6}, 12),
                                     IntervalPartitioner::fromLengths({2, 2, 2, 2, 2, 2}, 12)};
  const FaultResponse response = makeResponse(12, {2, 9});
  GroupVerdicts aliased = engine.run(parts, response);
  // Deterministic aliasing: cell 2's verdict is lost in the thirds partition
  // (union collapses to [8..11]) and cell 9's in the pairs partition (union
  // collapses to [2,3]). Running intersection: {8..11} ∩ all ∩ {2,3} = ∅ —
  // DisjointFailingUnion at the pairs partition.
  aliased.failing[0].reset(0);
  aliased.failing[2].reset(4);

  RetryPolicy policy;
  policy.maxRetriesPerSession = 2;
  policy.sessionBudget = 64;
  const DiagnosisRecovery recovery(topo, policy);
  std::size_t reruns = 0;
  // Aliasing is deterministic: every re-run reproduces the corrupted row.
  const RecoveredDiagnosis d = recovery.recover(
      parts, aliased, [&](std::size_t p, std::size_t) {
        ++reruns;
        PartitionVerdictRow row;
        row.failing = aliased.failing[p];
        return row;
      });

  ASSERT_TRUE(d.unionDiagnosis);
  EXPECT_TRUE(d.resolved);
  // Greedy clustering splits the unions into {8..11} and {2,3}.
  EXPECT_EQ(d.unionClusters, 2u);
  EXPECT_TRUE(d.candidates.cells.test(2));
  EXPECT_TRUE(d.candidates.cells.test(9));
  EXPECT_TRUE(d.droppedPartitions.empty());
  // The disjoint partition stops after ONE confirming re-run (6 sessions),
  // not the full majority vote; other suspects may still vote within budget.
  EXPECT_GE(d.retrySessions, 6u);
  EXPECT_LE(d.retrySessions, policy.sessionBudget);
  // One extra cluster costs a single 0.9 penalty; nothing was repaired.
  EXPECT_DOUBLE_EQ(d.confidence, 0.9);
  EXPECT_GT(reruns, 0u);
}

// ---- Pinned outputs ----------------------------------------------------------

std::uint64_t digestBits(const BitVector& bits, std::uint64_t h) {
  h = fnv1a64(static_cast<std::uint64_t>(bits.size()), h);
  for (std::size_t w = 0; w < bits.wordCount(); ++w) h = fnv1a64(bits.word(w), h);
  return h;
}

std::uint64_t digestCandidates(const CandidateSet& candidates, std::uint64_t h) {
  return digestBits(candidates.cells, digestBits(candidates.positions, h));
}

TEST(DiagnosisRecovery, MatchesParentDigests) {
  // Every field of NoisyPipeline::diagnose's result, and of a recover() call
  // on the same noisy schedule (reports in order, dropped partitions, union
  // mode), over s953 / s9234 / s35932 x flip rates x retry budgets x 1 and 4
  // chains. Recorded before analysis moved onto the live-word kernel and the
  // widening onto per-word miss counts, so both provably kept every
  // candidate, report, confidence, resolved flag and retry count.
  struct Expected {
    const char* circuit;
    std::size_t chains;
    std::uint64_t digest;
  };
  const Expected expected[] = {
      {"s953", 1, 0x757247e6a9070f9eULL},   {"s953", 4, 0x4664eaff7ec30535ULL},
      {"s9234", 1, 0x48dbc3fa7ddaf23dULL},  {"s9234", 4, 0xace526e2f0fa067aULL},
      {"s35932", 1, 0xd702847198eecd1eULL}, {"s35932", 4, 0x2c8dbf515618e488ULL},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(std::string(e.circuit) + " x " + std::to_string(e.chains) + " chains");
    const Netlist nl = generateNamedCircuit(e.circuit);
    WorkloadConfig wc;
    wc.numFaults = 60;
    const CircuitWorkload work = prepareWorkload(nl, wc, e.chains);
    DiagnosisConfig config;  // two-step, 8 partitions x 16 groups (8 on s953's short chains)
    config.groupsPerPartition =
        std::min<std::size_t>(16, std::bit_floor(work.topology.maxChainLength()));
    const DiagnosisPipeline base(work.topology, config);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double flipRate : {0.005, 0.01, 0.05}) {
      for (const std::size_t budget : {std::size_t{0}, std::size_t{16}, std::size_t{64}}) {
        NoiseConfig noise;
        noise.flipRate = flipRate;
        RetryPolicy retry;
        retry.sessionBudget = budget;
        const NoisyPipeline pipeline(work.topology, config, noise, retry);
        const VerdictCorruptor corruptor(noise);
        const DiagnosisRecovery recovery(work.topology, retry);
        for (std::size_t i = 0; i < work.responses.size(); ++i) {
          const FaultResponse& r = work.responses[i];
          const ResilientDiagnosis d = pipeline.diagnose(r, i);
          h = digestCandidates(d.candidates, h);
          for (const std::uint64_t v :
               {std::uint64_t{d.candidateCount}, std::uint64_t{d.actualCount},
                std::uint64_t{d.misdiagnosed}, std::bit_cast<std::uint64_t>(d.confidence),
                std::uint64_t{d.resolved}, std::uint64_t{d.inconsistencies},
                std::uint64_t{d.retrySessions}, std::uint64_t{d.injectedEvents}}) {
            h = fnv1a64(v, h);
          }

          const BitVector failingPositions = work.topology.collapseCells(r.failingCells);
          GroupVerdicts verdicts = base.engine().run(base.prepared(), r);
          corruptor.corrupt(verdicts, base.partitions(), failingPositions, i, 0);
          const PartitionRerun rerun = [&](std::size_t p, std::size_t attempt) {
            PartitionVerdictRow row = base.engine().runPartition(base.prepared(), p, r);
            corruptor.corruptRow(row, base.partitions()[p], p, failingPositions, i, attempt);
            return row;
          };
          const RecoveredDiagnosis rd = recovery.recover(base.partitions(), verdicts, rerun);
          h = digestCandidates(rd.candidates, h);
          for (const InconsistencyReport& report : rd.inconsistencies) {
            h = fnv1a64(static_cast<std::uint64_t>(report.kind), h);
            h = fnv1a64(std::uint64_t{report.partition}, h);
            h = fnv1a64(std::uint64_t{report.group}, h);
          }
          for (const std::size_t p : rd.droppedPartitions) h = fnv1a64(std::uint64_t{p}, h);
          for (const std::uint64_t v :
               {std::uint64_t{rd.inconsistencies.size()},
                std::uint64_t{rd.droppedPartitions.size()}, std::uint64_t{rd.retrySessions},
                std::bit_cast<std::uint64_t>(rd.confidence), std::uint64_t{rd.resolved},
                std::uint64_t{rd.unionDiagnosis}, std::uint64_t{rd.unionClusters}}) {
            h = fnv1a64(v, h);
          }
        }
      }
    }
    EXPECT_EQ(h, e.digest) << std::hex << "0x" << h;
  }
}

}  // namespace
}  // namespace scandiag

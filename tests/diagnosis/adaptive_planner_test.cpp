// The adaptive online planner's contracts: parity with the fixed two-step
// schedule when forced into its order, meets-or-beats DR at equal session
// budget when free to choose, budget accounting, determinism, and the
// rejections (no fixed schedule, no superposition pruning).

#include <gtest/gtest.h>

#include <stdexcept>

#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

class AdaptiveFixture : public ::testing::Test {
 protected:
  static const CircuitWorkload& work() {
    static const CircuitWorkload w = [] {
      WorkloadConfig wc;
      wc.numPatterns = 128;
      wc.numFaults = 150;
      return prepareWorkload(generateNamedCircuit("s953"), wc);
    }();
    return w;
  }

  static DiagnosisConfig adaptiveConfig() {
    DiagnosisConfig config;
    config.scheme = SchemeKind::Adaptive;
    config.numPartitions = 8;
    config.groupsPerPartition = 4;
    config.numPatterns = 128;
    return config;
  }
};

// ---- Parity: forced into the fixed order, adaptive IS two-step -------------

TEST_F(AdaptiveFixture, ForcedFixedOrderReproducesTwoStepExactly) {
  DiagnosisConfig twoCfg = adaptiveConfig();
  twoCfg.scheme = SchemeKind::TwoStep;
  const DiagnosisPipeline twoStep(work().topology, twoCfg);

  DiagnosisConfig forced = adaptiveConfig();
  forced.schemeConfig.adaptive.forceFixedOrder = true;
  const DiagnosisPipeline adaptive(work().topology, forced);
  ASSERT_NE(adaptive.adaptive(), nullptr);

  for (const FaultResponse& r : work().responses) {
    const FaultDiagnosis fixed = twoStep.diagnose(r);
    const FaultDiagnosis online = adaptive.diagnose(r);
    ASSERT_EQ(fixed.candidates.cells, online.candidates.cells);
    EXPECT_EQ(adaptive.adaptive()->run(r).sessionsUsed,
              forced.numPartitions * forced.groupsPerPartition);
  }

  // The aggregate paths agree too — bitwise, since the sums are identical.
  const DrReport a = twoStep.evaluate(work().responses);
  const DrReport b = adaptive.evaluate(work().responses);
  EXPECT_EQ(a.sumCandidates, b.sumCandidates);
  EXPECT_EQ(a.sumActual, b.sumActual);
  EXPECT_EQ(a.dr, b.dr);

  const std::vector<double> sweepFixed = twoStep.evaluateSweep(work().responses);
  const std::vector<double> sweepOnline = adaptive.evaluateSweep(work().responses);
  ASSERT_EQ(sweepFixed.size(), sweepOnline.size());
  for (std::size_t p = 0; p < sweepFixed.size(); ++p) {
    EXPECT_EQ(sweepFixed[p], sweepOnline[p]) << "prefix " << p + 1;
  }
}

// ---- The tentpole claim: meets-or-beats at equal session budget ------------

TEST_F(AdaptiveFixture, MeetsOrBeatsTwoStepAtEqualBudget) {
  DiagnosisConfig twoCfg = adaptiveConfig();
  twoCfg.scheme = SchemeKind::TwoStep;
  const DrReport fixed =
      DiagnosisPipeline(work().topology, twoCfg).evaluate(work().responses);
  const DrReport online =
      DiagnosisPipeline(work().topology, adaptiveConfig()).evaluate(work().responses);
  EXPECT_EQ(fixed.sumActual, online.sumActual);
  EXPECT_LE(online.sumCandidates, fixed.sumCandidates);
  EXPECT_LE(online.dr, fixed.dr);
}

TEST_F(AdaptiveFixture, SweepIsMonotoneNonIncreasing) {
  // Per fault the survivor set only ever shrinks, so the anytime curve read
  // at growing budgets must be non-increasing.
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  const std::vector<double> sweep = pipeline.evaluateSweep(work().responses);
  ASSERT_EQ(sweep.size(), adaptiveConfig().numPartitions);
  for (std::size_t p = 1; p < sweep.size(); ++p) {
    EXPECT_LE(sweep[p], sweep[p - 1]) << "prefix " << p + 1;
  }
}

// ---- Budget accounting ------------------------------------------------------

TEST_F(AdaptiveFixture, BudgetIsRespectedAndSoundnessHolds) {
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  const AdaptivePlanner* planner = pipeline.adaptive();
  ASSERT_NE(planner, nullptr);
  const std::size_t budget =
      adaptiveConfig().numPartitions * adaptiveConfig().groupsPerPartition;
  EXPECT_EQ(planner->sessionBudget(), budget);
  for (const FaultResponse& r : work().responses) {
    const AdaptiveOutcome o = planner->run(r);
    EXPECT_LE(o.sessionsUsed, budget);
    EXPECT_EQ(o.chosen.size(), o.steps.size());
    ASSERT_EQ(o.verdicts.failing.size(), o.chosen.size());
    // Soundness: the surviving candidates always cover the true failing cells.
    EXPECT_TRUE(r.failingCells.isSubsetOf(o.candidates.cells));
    // The step traces are cumulative and consistent with the final spend.
    if (!o.steps.empty()) {
      EXPECT_EQ(o.steps.back().cumulativeSessions, o.sessionsUsed);
    }
  }
}

TEST_F(AdaptiveFixture, StopsEarlyOnceResolvedAndSavesSessions) {
  // At a generous budget the greedy loop stops as soon as one survivor is
  // left — at least one fault must resolve before the budget runs out.
  // 16 partitions x 4 groups: a 64-session budget over the same 4-group pool.
  DiagnosisConfig config = adaptiveConfig();
  config.numPartitions = 16;
  const DiagnosisPipeline pipeline(work().topology, config);
  const std::size_t budget = pipeline.adaptive()->sessionBudget();
  ASSERT_EQ(budget, 64u);
  std::size_t savedSomewhere = 0;
  for (const FaultResponse& r : work().responses) {
    const AdaptiveOutcome o = pipeline.adaptive()->run(r);
    if (o.sessionsUsed < budget) ++savedSomewhere;
    if (o.candidates.positions.count() <= 1) {
      EXPECT_LE(o.sessionsUsed, budget);
    }
  }
  EXPECT_GT(savedSomewhere, 0u);
}

// ---- Determinism ------------------------------------------------------------

TEST_F(AdaptiveFixture, TwoPlannersChooseIdenticalSchedules) {
  const DiagnosisPipeline a(work().topology, adaptiveConfig());
  const DiagnosisPipeline b(work().topology, adaptiveConfig());
  for (const FaultResponse& r : work().responses) {
    const AdaptiveOutcome oa = a.adaptive()->run(r);
    const AdaptiveOutcome ob = b.adaptive()->run(r);
    ASSERT_EQ(oa.chosen, ob.chosen);
    EXPECT_EQ(oa.candidates.cells, ob.candidates.cells);
    EXPECT_EQ(oa.sessionsUsed, ob.sessionsUsed);
  }
}

// ---- Pool construction ------------------------------------------------------

TEST_F(AdaptiveFixture, PoolGroupCountsAreClampedToChainPowersOfTwo) {
  // A 3-position chain cannot host the requested 8-group partitions: the pool
  // must clamp to the largest feasible power of two (2), not throw.
  const ScanTopology topo = ScanTopology::singleChain(3);
  DiagnosisConfig config = adaptiveConfig();
  config.groupsPerPartition = 8;
  const AdaptivePlanner planner(topo, config);
  ASSERT_GT(planner.pool().size(), 0u);
  for (std::size_t i = 0; i < planner.pool().size(); ++i) {
    EXPECT_EQ(planner.pool().partition(i).groupCount(), 2u);
  }
}

TEST_F(AdaptiveFixture, ScheduleReturnsChosenPartitionsInOrder) {
  const DiagnosisPipeline pipeline(work().topology, adaptiveConfig());
  const AdaptivePlanner* planner = pipeline.adaptive();
  const AdaptiveOutcome o = planner->run(work().responses.front());
  const std::vector<Partition> schedule = planner->schedule(o);
  ASSERT_EQ(schedule.size(), o.chosen.size());
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    EXPECT_EQ(schedule[p].groups, planner->pool().partition(o.chosen[p]).groups);
  }
}

// ---- Rejections -------------------------------------------------------------

TEST(AdaptiveScheme, HasNoFixedScheduleFactory) {
  EXPECT_THROW(makeScheme(SchemeKind::Adaptive, SchemeConfig{}, 64, 4),
               std::invalid_argument);
  DiagnosisConfig config;
  config.scheme = SchemeKind::Adaptive;
  EXPECT_THROW(buildPartitions(config, 64), std::invalid_argument);
}

TEST_F(AdaptiveFixture, PruningIsRejected) {
  DiagnosisConfig config = adaptiveConfig();
  config.pruning = true;
  EXPECT_THROW(DiagnosisPipeline(work().topology, config), std::invalid_argument);
}

TEST(AdaptiveScheme, NameParsesAndPrints) {
  EXPECT_EQ(parseSchemeKind("adaptive"), SchemeKind::Adaptive);
  EXPECT_EQ(std::string(schemeName(SchemeKind::Adaptive)), "adaptive");
}

}  // namespace
}  // namespace scandiag

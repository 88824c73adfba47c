#include "diagnosis/planner.hpp"

#include <gtest/gtest.h>

#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

TEST(Planner, RecommendGroupCountMatchesPaperChoices) {
  EXPECT_EQ(recommendGroupCount(29), 4u);     // s953: paper uses 4
  EXPECT_EQ(recommendGroupCount(211), 16u);   // Table 2 chains: paper uses 16
  EXPECT_EQ(recommendGroupCount(6173), 64u);  // SOC-1 (paper uses 32; same decade)
  EXPECT_EQ(recommendGroupCount(2), 2u);
  EXPECT_THROW(recommendGroupCount(0), std::invalid_argument);
}

TEST(Planner, RecommendGroupCountTinyChains) {
  // Regression: chainLength 1 used to hit std::clamp(pow2, 2, 1) — lo > hi is
  // UB. The chain-length cap must win: a one-cell chain admits exactly one
  // (degenerate) group, and chains of 2-4 cells get the 2-group floor.
  EXPECT_EQ(recommendGroupCount(1), 1u);
  EXPECT_EQ(recommendGroupCount(2), 2u);
  EXPECT_EQ(recommendGroupCount(3), 2u);
  EXPECT_EQ(recommendGroupCount(4), 2u);
}

TEST(Planner, RecommendationIsPowerOfTwoAndBounded) {
  for (std::size_t len : {2u, 3u, 17u, 100u, 999u, 12345u}) {
    const std::size_t g = recommendGroupCount(len);
    EXPECT_EQ(g & (g - 1), 0u) << len;
    EXPECT_GE(g, 2u);
    EXPECT_LE(g, 64u);
    EXPECT_LE(g, len);
  }
}

class PlannerFixture : public ::testing::Test {
 protected:
  static const CircuitWorkload& work() {
    static const CircuitWorkload w = [] {
      WorkloadConfig wc;
      wc.numPatterns = 128;
      wc.numFaults = 150;
      return prepareWorkload(generateNamedCircuit("s9234"), wc);
    }();
    return w;
  }
};

TEST_F(PlannerFixture, PlanMeetsTargetAtMinimalSessions) {
  PlanRequest request;
  request.targetDr = 0.5;
  request.maxPartitions = 12;
  const PlanResult plan = planDiagnosis(work().topology, work().responses, request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.achievedDr, 0.5);
  EXPECT_EQ(plan.cost.sessions, plan.config.numPartitions * plan.config.groupsPerPartition);

  // No candidate configuration meets the target with fewer sessions.
  for (std::size_t g : {4u, 8u, 16u, 32u, 64u}) {
    DiagnosisConfig config = plan.config;
    config.groupsPerPartition = g;
    config.numPartitions = 12;
    const auto sweep = DiagnosisPipeline(work().topology, config).evaluateSweep(work().responses);
    for (std::size_t p = 0; p < sweep.size(); ++p) {
      if (sweep[p] <= 0.5) {
        EXPECT_GE((p + 1) * g, plan.cost.sessions) << "groups=" << g;
        break;
      }
    }
  }
}

TEST_F(PlannerFixture, TighterTargetCostsMoreSessions) {
  PlanRequest loose, tight;
  loose.targetDr = 1.0;
  tight.targetDr = 0.05;
  const PlanResult a = planDiagnosis(work().topology, work().responses, loose);
  const PlanResult b = planDiagnosis(work().topology, work().responses, tight);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_LE(a.cost.sessions, b.cost.sessions);
}

TEST_F(PlannerFixture, InfeasibleTargetReported) {
  PlanRequest request;
  request.targetDr = -1.0;  // DR >= 0 in exact mode: unreachable
  request.maxPartitions = 4;
  const PlanResult plan = planDiagnosis(work().topology, work().responses, request);
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, EmptySampleRejected) {
  const ScanTopology topo = ScanTopology::singleChain(16);
  EXPECT_THROW(planDiagnosis(topo, {}, PlanRequest{}), std::invalid_argument);
}

FaultResponse tinyResponse(std::size_t numCells, std::size_t failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  r.failingCells.set(failing);
  r.failingCellOrdinals.push_back(failing);
  BitVector stream(4);
  stream.set(0);
  r.errorStreams.push_back(stream);
  return r;
}

TEST(Planner, TinyChainFallbackProposesFeasibleGroups) {
  // Regression: on a 2-cell chain every candidate group count (4..64)
  // exceeds the chain, so the fallback must offer the 2-group floor rather
  // than an empty (or infeasible) candidate set.
  const ScanTopology topo = ScanTopology::singleChain(2);
  PlanRequest request;
  request.targetDr = 10.0;
  request.maxPartitions = 2;
  request.numPatterns = 4;
  PlanResult plan;
  ASSERT_NO_THROW(plan = planDiagnosis(topo, {tinyResponse(2, 0)}, request));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.config.groupsPerPartition, 2u);
}

TEST_F(PlannerFixture, ReportedCostMatchesChosenConfigExactly) {
  // Regression: the reported cost used to be computed from the chosen p + 1
  // while best.config still carried the maxPartitions sweep budget, so cost
  // and config could diverge. Pin the invariant and the exact cycle count.
  PlanRequest request;
  request.targetDr = 0.5;
  request.maxPartitions = 12;
  const PlanResult plan = planDiagnosis(work().topology, work().responses, request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.cost.sessions, plan.config.numPartitions * plan.config.groupsPerPartition);
  const DiagnosisCost recomputed =
      partitionRunCost(plan.config.numPartitions, plan.config.groupsPerPartition,
                       plan.config.numPatterns, work().topology.maxChainLength());
  EXPECT_EQ(plan.cost.sessions, recomputed.sessions);
  EXPECT_EQ(plan.cost.clockCycles, recomputed.clockCycles);
  // The chosen partition count is what the sweep found, never the budget.
  EXPECT_LE(plan.config.numPartitions, request.maxPartitions);
}

}  // namespace
}  // namespace scandiag

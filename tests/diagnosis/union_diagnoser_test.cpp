// Active union refinement: the set-cover / binary-search hybrid must collapse
// a candidate superset onto the true failing positions with an exact oracle,
// stay a sound superset at ANY session budget (unqueried intervals remain
// candidates — degrade-never-lie), spend its budget highest-ADI-first, and
// confirm every cluster even beyond the simultaneous-fault budget (whether
// that many clusters degrade the answer is DefectZooPipeline's rule).

#include "diagnosis/union_diagnoser.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scandiag {
namespace {

BitVector positionsOf(std::size_t length, const std::vector<std::size_t>& set) {
  BitVector bits(length);
  for (std::size_t p : set) bits.set(p);
  return bits;
}

/// Exact permanent-union oracle: a session over [lo, hi) fails iff it covers
/// a true failing position.
IntervalOracle exactOracle(const BitVector& truePositions, std::size_t* sessions = nullptr) {
  return [&truePositions, sessions](std::size_t lo, std::size_t hi) {
    if (sessions != nullptr) ++*sessions;
    for (std::size_t p = lo; p < hi; ++p) {
      if (truePositions.test(p)) return true;
    }
    return false;
  };
}

TEST(UnionDiagnoser, ExactOracleCollapsesToTruePositions) {
  const ScanTopology topo = ScanTopology::singleChain(32);
  const UnionDiagnoser refiner(topo, UnionRefineConfig{});
  const BitVector truth = positionsOf(32, {5, 6, 20});
  // Accidental survivors around each true cluster plus a fully-accidental
  // segment at [27, 29).
  const BitVector candidates = positionsOf(32, {4, 5, 6, 7, 19, 20, 21, 27, 28});

  const UnionRefinement r = refiner.refine(candidates, {}, exactOracle(truth));

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmed.toIndices(), truth.toIndices());
  EXPECT_EQ(r.candidates.positions.toIndices(), truth.toIndices());
  EXPECT_EQ(r.candidates.cells.toIndices(), truth.toIndices());  // single chain
  EXPECT_TRUE(r.unresolved.none());
  EXPECT_GT(r.sessions, 0u);
  EXPECT_GT(r.splits, 0u);
}

TEST(UnionDiagnoser, ZeroBudgetKeepsEveryCandidateUnresolved) {
  const ScanTopology topo = ScanTopology::singleChain(16);
  UnionRefineConfig config;
  config.sessionBudget = 0;
  const UnionDiagnoser refiner(topo, config);
  const BitVector truth = positionsOf(16, {3});
  const BitVector candidates = positionsOf(16, {2, 3, 4, 9, 10});

  const UnionRefinement r = refiner.refine(candidates, {}, exactOracle(truth));

  EXPECT_EQ(r.sessions, 0u);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.unresolved.toIndices(), candidates.toIndices());
  // Passive result unchanged: still the sound superset it was handed.
  EXPECT_EQ(r.candidates.positions.toIndices(), candidates.toIndices());
}

TEST(UnionDiagnoser, AnyBudgetStaysASoundSuperset) {
  const ScanTopology topo = ScanTopology::singleChain(48);
  const BitVector truth = positionsOf(48, {7, 30, 31});
  const BitVector candidates = positionsOf(48, {5, 6, 7, 8, 14, 15, 29, 30, 31, 40, 41, 42});
  for (std::size_t budget = 0; budget <= 24; ++budget) {
    UnionRefineConfig config;
    config.sessionBudget = budget;
    const UnionDiagnoser refiner(topo, config);
    const UnionRefinement r = refiner.refine(candidates, {}, exactOracle(truth));
    EXPECT_LE(r.sessions, budget) << "budget " << budget;
    EXPECT_TRUE(truth.isSubsetOf(r.candidates.positions)) << "budget " << budget;
    EXPECT_TRUE(r.candidates.positions.isSubsetOf(candidates)) << "budget " << budget;
  }
}

TEST(UnionDiagnoser, AdiOrderingSpendsBudgetOnHighWeightSegmentsFirst) {
  const ScanTopology topo = ScanTopology::singleChain(16);
  UnionRefineConfig config;
  config.sessionBudget = 1;  // exactly one whole-segment query
  const UnionDiagnoser refiner(topo, config);
  const BitVector truth(16);  // both segments are accidental
  const BitVector candidates = positionsOf(16, {2, 3, 10, 11});
  std::vector<double> prior(16, 0.0);
  prior[10] = prior[11] = 5.0;  // [10,12) is the likelier accidental survivor

  const UnionRefinement r = refiner.refine(candidates, prior, exactOracle(truth));

  EXPECT_EQ(r.sessions, 1u);
  // The one session exonerated [10, 12); [2, 4) was never queried.
  EXPECT_EQ(r.candidates.positions.toIndices(), positionsOf(16, {2, 3}).toIndices());
  EXPECT_EQ(r.unresolved.toIndices(), positionsOf(16, {2, 3}).toIndices());
  EXPECT_FALSE(r.complete);
}

TEST(UnionDiagnoser, ClusterCountBeyondMaxFaultsIsDegraded) {
  const ScanTopology topo = ScanTopology::singleChain(20);
  const UnionDiagnoser refiner(topo, UnionRefineConfig{});
  // Five isolated width-1 true segments, more than the simultaneous-fault
  // budget (kMaxUnionFaults = 4): refinement still confirms every one of
  // them, so the caller can count the clusters and degrade the answer
  // (DefectZooPipelineTest.ClustersBeyondMaxUnionFaultsDegradeExactCandidates).
  const BitVector truth = positionsOf(20, {1, 5, 9, 13, 17});
  const UnionRefinement r = refiner.refine(truth, {}, exactOracle(truth));

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmed.toIndices(), truth.toIndices());
  EXPECT_EQ(r.candidates.positions.toIndices(), truth.toIndices());
}

TEST(UnionDiagnoser, MismatchedAxisSizesAreRejected) {
  const ScanTopology topo = ScanTopology::singleChain(8);
  const UnionDiagnoser refiner(topo, UnionRefineConfig{});
  const BitVector truth = positionsOf(8, {1});
  EXPECT_THROW(refiner.refine(BitVector(9), {}, exactOracle(truth)), std::logic_error);
  EXPECT_THROW(refiner.refine(BitVector(8), std::vector<double>(3, 1.0), exactOracle(truth)),
               std::logic_error);
}

TEST(UnionDiagnoser, AdiPriorSumsTransitionDensityPerPosition) {
  const ScanTopology topo = ScanTopology::singleChain(3);
  std::vector<BitVector> captures(3, BitVector(4));
  // cell 0: 0101 -> 3 transitions / 3 = 1.0
  captures[0].set(1);
  captures[0].set(3);
  // cell 1: 0011 -> 1 transition / 3
  captures[1].set(2);
  captures[1].set(3);
  // cell 2: 0000 -> 0
  const std::vector<double> prior = adiPriorFromGoodCaptures(topo, captures);
  ASSERT_EQ(prior.size(), 3u);
  EXPECT_DOUBLE_EQ(prior[0], 1.0);
  EXPECT_NEAR(prior[1], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(prior[2], 0.0);

  EXPECT_THROW(adiPriorFromGoodCaptures(topo, std::vector<BitVector>(2, BitVector(4))),
               std::logic_error);
}

}  // namespace
}  // namespace scandiag

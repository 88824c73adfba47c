// Tests for the prior-work baseline schemes: deterministic fixed-length
// intervals [8] and adaptive binary search [6], plus the cost model.

#include <gtest/gtest.h>

#include "diagnosis/binary_search_diagnoser.hpp"
#include "diagnosis/cost_model.hpp"
#include "diagnosis/deterministic_partitioner.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// ---- DeterministicIntervalPartitioner --------------------------------------

TEST(DeterministicPartitioner, EqualLengthIntervalsCoverChain) {
  DeterministicIntervalPartitioner gen(100, 8);
  const Partition p = gen.next();
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(gen.intervalLength(), 13u);  // ceil(100/8)
  for (const BitVector& g : p.groups) {
    EXPECT_GE(g.count(), 1u);
    EXPECT_LE(g.count(), 13u);
  }
}

TEST(DeterministicPartitioner, SuccessivePartitionsRotateBoundaries) {
  DeterministicIntervalPartitioner gen(100, 4);
  const Partition a = gen.next();
  const Partition b = gen.next();
  bool anyDiff = false;
  for (std::size_t g = 0; g < 4; ++g) anyDiff |= (a.groups[g] != b.groups[g]);
  EXPECT_TRUE(anyDiff);
}

TEST(DeterministicPartitioner, GoldenRotationVisitsManyPhases) {
  // Eight successive partitions must have eight distinct group-0 masks (a
  // half-length rotation would only produce ~2).
  DeterministicIntervalPartitioner gen(211, 16);
  std::vector<BitVector> firstGroups;
  for (int i = 0; i < 8; ++i) firstGroups.push_back(gen.next().groups[0]);
  for (std::size_t i = 0; i < firstGroups.size(); ++i)
    for (std::size_t j = i + 1; j < firstGroups.size(); ++j)
      EXPECT_NE(firstGroups[i], firstGroups[j]) << i << " vs " << j;
}

TEST(DeterministicPartitioner, ParameterValidation) {
  EXPECT_THROW(DeterministicIntervalPartitioner(0, 4), std::invalid_argument);
  EXPECT_THROW(DeterministicIntervalPartitioner(3, 4), std::invalid_argument);
}

TEST(DeterministicPartitioner, AvailableThroughFactory) {
  auto scheme = makeScheme(SchemeKind::DeterministicInterval, SchemeConfig{}, 64, 4);
  EXPECT_EQ(scheme->name(), "deterministic-interval");
  EXPECT_NO_THROW(scheme->next().validate());
}

// ---- BinarySearchDiagnoser --------------------------------------------------

FaultResponse responseWithCells(std::size_t numCells, const std::vector<std::size_t>& failing) {
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

TEST(BinarySearch, FindsExactFailingPositions) {
  const ScanTopology topo = ScanTopology::singleChain(64);
  const BinarySearchDiagnoser diag(topo, 16);
  const FaultResponse r = responseWithCells(64, {3, 40, 41});
  const BinarySearchResult result = diag.diagnose(r);
  EXPECT_EQ(result.candidates.cells, r.failingCells);
}

TEST(BinarySearch, NoFailuresOneSession) {
  const ScanTopology topo = ScanTopology::singleChain(64);
  const BinarySearchDiagnoser diag(topo, 16);
  const BinarySearchResult result = diag.diagnose(responseWithCells(64, {}));
  EXPECT_TRUE(result.candidates.cells.none());
  EXPECT_EQ(result.sessions, 1u);
}

TEST(BinarySearch, SessionCountLogarithmicForSingleFailure) {
  const ScanTopology topo = ScanTopology::singleChain(1024);
  const BinarySearchDiagnoser diag(topo, 16);
  const BinarySearchResult result = diag.diagnose(responseWithCells(1024, {513}));
  // Single failing cell: ~2 sessions per level (failing half + sibling),
  // 10 levels deep, plus the root. Comfortably below 2*log2(n)+2.
  EXPECT_LE(result.sessions, 2u * 10u + 2u);
  EXPECT_GE(result.sessions, 10u);
}

TEST(BinarySearch, SessionCountGrowsWithFailureCount) {
  const ScanTopology topo = ScanTopology::singleChain(256);
  const BinarySearchDiagnoser diag(topo, 16);
  const std::size_t few = diag.diagnose(responseWithCells(256, {7})).sessions;
  std::vector<std::size_t> many;
  for (std::size_t i = 0; i < 32; ++i) many.push_back(i * 8);
  const std::size_t lots = diag.diagnose(responseWithCells(256, many)).sessions;
  EXPECT_GT(lots, few * 4);
}

TEST(BinarySearch, MultiChainResolvesPositionsNotCells) {
  // 2 chains of 4: a failing cell at chain 1 position 2 can only be resolved
  // to "position 2", i.e. cells {2, 6}.
  const ScanTopology topo = ScanTopology::blockChains(8, 2);
  const BinarySearchDiagnoser diag(topo, 16);
  const BinarySearchResult result = diag.diagnose(responseWithCells(8, {6}));
  EXPECT_EQ(result.candidates.cells.toIndices(), (std::vector<std::size_t>{2, 6}));
}

TEST(BinarySearch, SoundOnRealWorkload) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 60;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  const BinarySearchDiagnoser diag(work.topology, 64);
  for (const FaultResponse& r : work.responses) {
    const BinarySearchResult result = diag.diagnose(r);
    EXPECT_EQ(result.candidates.cells, r.failingCells);  // exact on single chain
    EXPECT_GE(result.sessions, 1u);
  }
  EXPECT_GT(diag.meanSessions(work.responses), 1.0);
}

// ---- Cost model --------------------------------------------------------------

TEST(CostModel, SessionCycles) {
  const DiagnosisCost one = sessionCost(/*patterns=*/100, /*chain=*/50);
  EXPECT_EQ(one.sessions, 1u);
  EXPECT_EQ(one.clockCycles, 100u * 51u + 50u);
}

TEST(CostModel, PartitionRunScalesWithSessions) {
  const DiagnosisCost run = partitionRunCost(8, 16, 100, 50);
  EXPECT_EQ(run.sessions, 128u);
  EXPECT_EQ(run.clockCycles, sessionCost(100, 50).clockCycles * 128u);
}

}  // namespace
}  // namespace scandiag

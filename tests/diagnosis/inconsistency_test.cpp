// Detection invariants: analyzeChecked must flag physically impossible
// verdict patterns (a real permanent fault is seen by every partition) and
// must degrade to a candidate superset instead of an empty intersection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.hpp"
#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"

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

struct Fixture {
  ScanTopology topo = ScanTopology::singleChain(12);
  SessionEngine engine{topo, SessionConfig{SignatureMode::Exact, 4}};
  CandidateAnalyzer analyzer{topo};
  // Partition A: thirds; B: halves. Fault at 5 -> A fails group 1 [4..7],
  // B fails group 0 [0..5], intersection {4, 5}.
  std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12),
                               IntervalPartitioner::fromLengths({6, 6}, 12)};
  FaultResponse response = makeResponse(12, {5});
};

TEST(AnalyzeChecked, CleanVerdictsMatchAnalyze) {
  Fixture f;
  const GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  EXPECT_TRUE(checked.consistent());
  EXPECT_EQ(checked.candidates.cells.toIndices(),
            f.analyzer.analyze(f.parts, verdicts).cells.toIndices());
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0, 1}));
}

TEST(AnalyzeChecked, AllPassingScheduleIsConsistentlyEmpty) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  for (BitVector& row : verdicts.failing) row.resetAll();
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  EXPECT_TRUE(checked.consistent());
  EXPECT_EQ(checked.candidates.cellCount(), 0u);
}

TEST(AnalyzeChecked, LostFailVerdictFlagsAllGroupsPassing) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  verdicts.failing[1].reset(0);  // B's only failing group reads pass
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_EQ(checked.inconsistencies.size(), 1u);
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::AllGroupsPassing);
  EXPECT_EQ(checked.inconsistencies[0].partition, 1u);
  // B is excluded; the superset is A's failing union, which keeps cell 5.
  EXPECT_EQ(checked.candidates.cells.toIndices(), (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0}));
}

TEST(AnalyzeChecked, SpuriousFailFlagsPhantomGroup) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  verdicts.failing[0].set(2);  // pass->fail on A group 2 [8..11], disjoint from {4,5}
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_EQ(checked.inconsistencies.size(), 1u);
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::PhantomFailingGroup);
  EXPECT_EQ(checked.inconsistencies[0].partition, 0u);
  EXPECT_EQ(checked.inconsistencies[0].group, 2u);
  // The phantom widens a union but cannot shrink the intersection.
  EXPECT_EQ(checked.candidates.cells.toIndices(), (std::vector<std::size_t>{4, 5}));
}

TEST(AnalyzeChecked, DisjointUnionIsSkippedNotIntersected) {
  // Third partition in pairs; move its fail verdict from the true group [4,5]
  // to the unrelated group [0,1] — its union is now disjoint from {4..7}.
  Fixture f;
  f.parts.push_back(IntervalPartitioner::fromLengths({2, 2, 2, 2, 2, 2}, 12));
  GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  verdicts.failing[2].reset(2);
  verdicts.failing[2].set(0);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_FALSE(checked.consistent());
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::DisjointFailingUnion);
  EXPECT_EQ(checked.inconsistencies[0].partition, 2u);
  // Partitions A and B still intersect to {4, 5}; cell 5 survives.
  EXPECT_TRUE(checked.candidates.cells.test(5));
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0, 1}));
}

TEST(AnalyzeChecked, ReportsDescribeThemselves) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(f.parts, f.response);
  verdicts.failing[1].reset(0);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_FALSE(checked.inconsistencies.empty());
  const std::string text = checked.inconsistencies[0].describe();
  EXPECT_NE(text.find("partition 1"), std::string::npos) << text;
  EXPECT_NE(text.find(inconsistencyKindName(InconsistencyKind::AllGroupsPassing)),
            std::string::npos)
      << text;
}

// Exhaustive single-flip sweep: for a single-failing-cell fault, a flip at
// ANY (partition, group) must leave analyzeChecked with a nonempty candidate
// set that still contains the true cell — detection plus degradation alone,
// no retries.
TEST(AnalyzeChecked, SingleFlipAnywhereKeepsTrueCell) {
  for (const SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const ScanTopology topo = ScanTopology::singleChain(24);
    DiagnosisConfig config;
    config.scheme = scheme;
    config.numPartitions = 4;
    config.groupsPerPartition = 4;
    config.numPatterns = 4;
    const std::vector<Partition> parts = buildPartitions(config, topo.maxChainLength());
    const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
    const CandidateAnalyzer analyzer(topo);
    for (const std::size_t cell : {std::size_t{0}, std::size_t{11}, std::size_t{23}}) {
      const FaultResponse response = makeResponse(24, {cell});
      const GroupVerdicts clean = engine.run(parts, response);
      for (std::size_t p = 0; p < parts.size(); ++p) {
        for (std::size_t g = 0; g < parts[p].groupCount(); ++g) {
          GroupVerdicts noisy = clean;
          noisy.failing[p].flip(g);
          const CheckedAnalysis checked = analyzer.analyzeChecked(parts, noisy);
          EXPECT_GT(checked.candidates.cellCount(), 0u)
              << schemeName(scheme) << " cell " << cell << " flip p" << p << " g" << g;
          EXPECT_TRUE(checked.candidates.cells.test(cell))
              << schemeName(scheme) << " cell " << cell << " flip p" << p << " g" << g;
        }
      }
    }
  }
}

// ---- Parity with the whole-axis analyzer -----------------------------------

// The analyzer as it was before the live-word kernel: every step and every
// check loops over all words of the axis. Kept here as the reference.
namespace reference {

BitVector::Word failingWord(const Partition& part, const BitVector& failing, std::size_t w) {
  BitVector::Word out = 0;
  failing.forEachSet([&](std::size_t g) { out |= part.groups[g].word(w); });
  return out;
}

void intersectFailing(const Partition& part, const BitVector& failing, BitVector& positions) {
  BitVector::Word* words = positions.data();
  for (std::size_t w = 0; w < positions.wordCount(); ++w) {
    if (words[w] != 0) words[w] &= failingWord(part, failing, w);
  }
}

bool failingAny(const Partition& part, const BitVector& failing) {
  for (std::size_t g = failing.findFirst(); g != BitVector::npos; g = failing.findNext(g)) {
    if (part.groups[g].any()) return true;
  }
  return false;
}

bool failingIntersects(const Partition& part, const BitVector& failing,
                       const BitVector& positions) {
  for (std::size_t w = 0; w < positions.wordCount(); ++w) {
    if (positions.word(w) != 0 && (positions.word(w) & failingWord(part, failing, w)) != 0)
      return true;
  }
  return false;
}

BitVector intersect(std::size_t length, const std::vector<Partition>& partitions,
                    const GroupVerdicts& verdicts) {
  BitVector positions(length, true);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    intersectFailing(partitions[p], verdicts.failing[p], positions);
  }
  return positions;
}

CheckedAnalysis analyzeChecked(const ScanTopology& topology,
                               const std::vector<Partition>& partitions,
                               const GroupVerdicts& verdicts) {
  const std::size_t length = topology.maxChainLength();
  bool anyFailing = false;
  for (std::size_t p = 0; p < partitions.size() && !anyFailing; ++p) {
    anyFailing = failingAny(partitions[p], verdicts.failing[p]);
  }
  CheckedAnalysis out;
  if (!anyFailing) {
    out.candidates.positions = BitVector(length);
    out.candidates.cells = topology.expandPositions(out.candidates.positions);
    return out;
  }
  BitVector& positions = out.candidates.positions;
  positions = BitVector(length, true);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    if (!failingAny(part, failing)) {
      out.inconsistencies.push_back({InconsistencyKind::AllGroupsPassing, p, BitVector::npos});
      continue;
    }
    if (!failingIntersects(part, failing, positions)) {
      std::size_t suspect = BitVector::npos;
      for (std::size_t g = 0; g < part.groupCount(); ++g) {
        if (!failing.test(g) && part.groups[g].intersects(positions)) {
          suspect = g;
          break;
        }
      }
      out.inconsistencies.push_back({InconsistencyKind::DisjointFailingUnion, p, suspect});
      continue;
    }
    intersectFailing(part, failing, positions);
    out.usedPartitions.push_back(p);
  }
  for (const std::size_t p : out.usedPartitions) {
    for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
      if (verdicts.failing[p].test(g) && !partitions[p].groups[g].intersects(positions)) {
        out.inconsistencies.push_back({InconsistencyKind::PhantomFailingGroup, p, g});
      }
    }
  }
  out.candidates.cells = topology.expandPositions(positions);
  return out;
}

UnionAnalysis analyzeUnion(const ScanTopology& topology,
                           const std::vector<Partition>& partitions,
                           const GroupVerdicts& verdicts) {
  const std::size_t length = topology.maxChainLength();
  UnionAnalysis out;
  BitVector& floorPositions = out.supersetFloor.positions;
  floorPositions = BitVector(length);
  std::vector<BitVector> intersections;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const Partition& part = partitions[p];
    const BitVector& failing = verdicts.failing[p];
    if (!failingAny(part, failing)) continue;
    failing.forEachSet([&](std::size_t g) { floorPositions |= part.groups[g]; });
    bool merged = false;
    for (BitVector& cluster : intersections) {
      if (failingIntersects(part, failing, cluster)) {
        intersectFailing(part, failing, cluster);
        merged = true;
        break;
      }
    }
    if (!merged) intersections.push_back(part.failingUnion(failing));
  }
  out.clusters = intersections.size();
  out.withinBudget = out.clusters <= kMaxUnionFaults;
  out.candidates.positions = BitVector(length);
  for (const BitVector& cluster : intersections) out.candidates.positions |= cluster;
  out.candidates.cells = topology.expandPositions(out.candidates.positions);
  out.supersetFloor.cells = topology.expandPositions(floorPositions);
  return out;
}

}  // namespace reference

/// Verdict rows for `parts`: the clean rows of one to three random clusters
/// of failing positions, then one of: an all-passing schedule, uniformly
/// random rows, or up to three edits (a lost row, a verdict moved to another
/// group, a phantom group, a single flip).
GroupVerdicts seededVerdicts(const std::vector<Partition>& parts, std::size_t length,
                             Xoroshiro128& rng) {
  BitVector truth(length);
  for (std::size_t c = 1 + rng.nextBelow(3); c > 0; --c) {
    const std::size_t start = rng.nextBelow(length);
    const std::size_t span = 1 + rng.nextBelow(8);
    for (std::size_t i = start; i < std::min(length, start + span); ++i) truth.set(i);
  }
  GroupVerdicts verdicts;
  for (const Partition& part : parts) {
    BitVector row(part.groupCount());
    for (std::size_t g = 0; g < part.groupCount(); ++g) {
      if (part.groups[g].intersects(truth)) row.set(g);
    }
    verdicts.failing.push_back(std::move(row));
  }
  const std::uint64_t mode = rng.nextBelow(10);
  if (mode == 0) {
    for (BitVector& row : verdicts.failing) row.resetAll();
  } else if (mode == 1) {
    for (BitVector& row : verdicts.failing) {
      for (std::size_t g = 0; g < row.size(); ++g) row.set(g, rng.nextBelow(4) == 0);
    }
  } else {
    for (std::size_t e = rng.nextBelow(4); e > 0; --e) {
      BitVector& row = verdicts.failing[rng.nextBelow(parts.size())];
      const std::size_t g = rng.nextBelow(row.size());
      switch (rng.nextBelow(4)) {
        case 0:
          row.resetAll();
          break;
        case 1:
          row.resetAll();
          row.set(g);
          break;
        case 2:
          row.set(g);
          break;
        default:
          row.flip(g);
          break;
      }
    }
  }
  return verdicts;
}

void expectSameCandidates(const CandidateSet& expected, const CandidateSet& actual,
                          const std::string& where) {
  EXPECT_EQ(expected.positions.size(), actual.positions.size()) << where;
  EXPECT_EQ(expected.positions.toIndices(), actual.positions.toIndices()) << where;
  EXPECT_EQ(expected.cells.toIndices(), actual.cells.toIndices()) << where;
}

// The live-word kernel against the whole-axis analyzer above, on seeded
// interval, random-selection and two-step schedules over 1 and 4 chains
// whose lengths are not multiples of 64, with verdict rows that hit every
// report kind and fully passing schedules. Checked analysis must agree on
// candidates, reports (in order) and used partitions; the plain and union
// modes on their outputs.
TEST(AnalyzeChecked, MatchesReferenceOnSeededVerdicts) {
  const std::array<ScanTopology, 3> topologies = {ScanTopology::singleChain(150),
                                                  ScanTopology::blockChains(1333, 4),
                                                  ScanTopology::singleChain(709)};
  std::array<std::size_t, 3> kinds{};
  std::size_t passingSchedules = 0;
  Xoroshiro128 rng(0xC0FFEE);
  for (const ScanTopology& topo : topologies) {
    const std::size_t length = topo.maxChainLength();
    const CandidateAnalyzer analyzer(topo);
    for (const SchemeKind scheme :
         {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
      for (const std::size_t groups : {std::size_t{4}, std::size_t{16}}) {
        DiagnosisConfig config;
        config.scheme = scheme;
        config.numPartitions = 3 + rng.nextBelow(6);
        config.groupsPerPartition = groups;
        const std::vector<Partition> parts = buildPartitions(config, length);
        for (std::size_t trial = 0; trial < 120; ++trial) {
          const GroupVerdicts verdicts = seededVerdicts(parts, length, rng);
          const std::string where = schemeName(scheme) + " length " + std::to_string(length) +
                                    " groups " + std::to_string(groups) + " trial " +
                                    std::to_string(trial);
          const CheckedAnalysis expected = reference::analyzeChecked(topo, parts, verdicts);
          const CheckedAnalysis actual = analyzer.analyzeChecked(parts, verdicts);
          expectSameCandidates(expected.candidates, actual.candidates, where);
          ASSERT_EQ(expected.inconsistencies.size(), actual.inconsistencies.size()) << where;
          for (std::size_t i = 0; i < expected.inconsistencies.size(); ++i) {
            const InconsistencyReport& e = expected.inconsistencies[i];
            const InconsistencyReport& a = actual.inconsistencies[i];
            EXPECT_EQ(e.kind, a.kind) << where << " report " << i;
            EXPECT_EQ(e.partition, a.partition) << where << " report " << i;
            EXPECT_EQ(e.group, a.group) << where << " report " << i;
            ++kinds[static_cast<std::size_t>(e.kind)];
          }
          EXPECT_EQ(expected.usedPartitions, actual.usedPartitions) << where;
          if (expected.usedPartitions.empty()) ++passingSchedules;

          EXPECT_EQ(reference::intersect(length, parts, verdicts).toIndices(),
                    analyzer.intersect(parts, verdicts).toIndices())
              << where;
          const UnionAnalysis unionExpected = reference::analyzeUnion(topo, parts, verdicts);
          const UnionAnalysis unionActual = analyzer.analyzeUnion(parts, verdicts);
          expectSameCandidates(unionExpected.candidates, unionActual.candidates, where);
          expectSameCandidates(unionExpected.supersetFloor, unionActual.supersetFloor, where);
          EXPECT_EQ(unionExpected.clusters, unionActual.clusters) << where;
          EXPECT_EQ(unionExpected.withinBudget, unionActual.withinBudget) << where;
        }
      }
    }
  }
  // The rows reached every report kind and fully passing schedules.
  for (const std::size_t count : kinds) EXPECT_GT(count, 50u);
  EXPECT_GT(passingSchedules, 50u);
}

}  // namespace
}  // namespace scandiag

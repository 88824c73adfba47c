#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/journal.hpp"
#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/random_selection_partitioner.hpp"
#include "diagnosis/two_step_scheme.hpp"

namespace scandiag {
namespace {

bool groupIsContiguousInterval(const BitVector& group) {
  const std::size_t first = group.findFirst();
  if (first == BitVector::npos) return true;  // empty
  std::size_t expected = first;
  for (std::size_t pos = first; pos != BitVector::npos; pos = group.findNext(pos)) {
    if (pos != expected) return false;
    ++expected;
  }
  return true;
}

// ---- RandomSelectionPartitioner -------------------------------------------

TEST(RandomSelectionPartitioner, PartitionsAreValidAndDistinct) {
  RandomSelectionPartitioner gen(RandomSelectionConfig{}, 211, 16);
  Partition a = gen.next();
  Partition b = gen.next();
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
  EXPECT_EQ(a.groupCount(), 16u);
  bool anyDiff = false;
  for (std::size_t g = 0; g < 16; ++g) anyDiff |= (a.groups[g] != b.groups[g]);
  EXPECT_TRUE(anyDiff);
}

TEST(RandomSelectionPartitioner, RequiresPowerOfTwoGroups) {
  EXPECT_THROW(RandomSelectionPartitioner(RandomSelectionConfig{}, 100, 3),
               std::invalid_argument);
  EXPECT_THROW(RandomSelectionPartitioner(RandomSelectionConfig{}, 100, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(RandomSelectionPartitioner(RandomSelectionConfig{}, 100, 4));
}

TEST(RandomSelectionPartitioner, Deterministic) {
  RandomSelectionPartitioner g1(RandomSelectionConfig{}, 100, 8);
  RandomSelectionPartitioner g2(RandomSelectionConfig{}, 100, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition a = g1.next(), b = g2.next();
    for (std::size_t g = 0; g < 8; ++g) EXPECT_EQ(a.groups[g], b.groups[g]);
  }
}

TEST(RandomSelectionPartitioner, GroupsAreScattered) {
  RandomSelectionPartitioner gen(RandomSelectionConfig{}, 512, 4);
  const Partition p = gen.next();
  // With 512 positions and 4 groups, at least one group must be non-contiguous
  // (the probability of all being intervals is astronomically small).
  bool anyScattered = false;
  for (const BitVector& g : p.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(RandomSelectionPartitioner, GroupSizesRoughlyBalanced) {
  RandomSelectionPartitioner gen(RandomSelectionConfig{}, 4096, 4);
  const Partition p = gen.next();
  for (const BitVector& g : p.groups) {
    EXPECT_GT(g.count(), 4096u / 4 / 2);
    EXPECT_LT(g.count(), 4096u / 4 * 2);
  }
}

// ---- IntervalPartitioner ---------------------------------------------------

TEST(IntervalPartitioner, GroupsAreContiguousIntervals) {
  IntervalPartitioner gen(IntervalPartitionerConfig{}, 211, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition p = gen.next();
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.groupCount(), 8u);
    for (const BitVector& g : p.groups) {
      EXPECT_TRUE(groupIsContiguousInterval(g));
      EXPECT_GE(g.count(), 1u);  // seed search guarantees nonempty groups
    }
  }
}

TEST(IntervalPartitioner, SuccessivePartitionsUseFreshSeeds) {
  IntervalPartitioner gen(IntervalPartitionerConfig{}, 211, 8);
  const Partition a = gen.next();
  const Partition b = gen.next();
  ASSERT_EQ(gen.usedSeeds().size(), 2u);
  EXPECT_NE(gen.usedSeeds()[0].seed, gen.usedSeeds()[1].seed);
  bool anyDiff = false;
  for (std::size_t g = 0; g < 8; ++g) anyDiff |= (a.groups[g] != b.groups[g]);
  EXPECT_TRUE(anyDiff);
}

TEST(IntervalPartitioner, FromLengthsBuildsExactIntervals) {
  const Partition p = IntervalPartitioner::fromLengths({2, 3, 1}, 6);
  EXPECT_EQ(p.groups[0].toIndices(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(p.groups[1].toIndices(), (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(p.groups[2].toIndices(), (std::vector<std::size_t>{5}));
  EXPECT_THROW(IntervalPartitioner::fromLengths({2, 3}, 6), std::invalid_argument);
  EXPECT_THROW(IntervalPartitioner::fromLengths({4, 3}, 6), std::invalid_argument);
}

TEST(IntervalPartitioner, ParameterValidation) {
  EXPECT_THROW(IntervalPartitioner(IntervalPartitionerConfig{}, 0, 4), std::invalid_argument);
  EXPECT_THROW(IntervalPartitioner(IntervalPartitionerConfig{}, 3, 4), std::invalid_argument);
}

// ---- TwoStepScheme ---------------------------------------------------------

TEST(TwoStepScheme, FirstPartitionIsIntervalRestAreRandom) {
  SchemeConfig config;  // intervalPartitions = 1
  TwoStepScheme gen(config, 211, 8);
  const Partition first = gen.next();
  for (const BitVector& g : first.groups) EXPECT_TRUE(groupIsContiguousInterval(g));
  const Partition second = gen.next();
  bool anyScattered = false;
  for (const BitVector& g : second.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(TwoStepScheme, IntervalCountRespected) {
  SchemeConfig config;
  config.intervalPartitions = 3;
  TwoStepScheme gen(config, 211, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition p = gen.next();
    for (const BitVector& g : p.groups) EXPECT_TRUE(groupIsContiguousInterval(g));
  }
  const Partition p = gen.next();
  bool anyScattered = false;
  for (const BitVector& g : p.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(TwoStepScheme, MatchesComponentGenerators) {
  // Two-step's partitions must equal those of standalone interval/random
  // generators on the selector hardware's defaults (the schemes share seeds).
  TwoStepScheme twoStep(SchemeConfig{}, 100, 4);
  IntervalPartitioner interval(IntervalPartitionerConfig{}, 100, 4);
  RandomSelectionPartitioner random(RandomSelectionConfig{}, 100, 4);
  const Partition t1 = twoStep.next();
  const Partition i1 = interval.next();
  for (std::size_t g = 0; g < 4; ++g) EXPECT_EQ(t1.groups[g], i1.groups[g]);
  const Partition t2 = twoStep.next();
  const Partition r1 = random.next();
  for (std::size_t g = 0; g < 4; ++g) EXPECT_EQ(t2.groups[g], r1.groups[g]);
}

TEST(MakeScheme, FactoryCoversAllKinds) {
  SchemeConfig config;
  for (SchemeKind kind : {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                          SchemeKind::TwoStep}) {
    auto scheme = makeScheme(kind, config, 64, 4);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), schemeName(kind));
    EXPECT_NO_THROW(scheme->next().validate());
  }
}

TEST(TakePartitions, TakesExactly) {
  SchemeConfig config;
  auto scheme = makeScheme(SchemeKind::RandomSelection, config, 64, 4);
  const auto partitions = takePartitions(*scheme, 5);
  EXPECT_EQ(partitions.size(), 5u);
}

// ---- Pinned schedules -------------------------------------------------------

std::uint64_t digestPartitions(const std::vector<Partition>& partitions, std::uint64_t h) {
  for (const Partition& p : partitions) {
    h = fnv1a64(static_cast<std::uint64_t>(p.groupCount()), h);
    for (const BitVector& g : p.groups) {
      for (std::size_t w = 0; w < g.wordCount(); ++w) h = fnv1a64(g.word(w), h);
    }
  }
  return h;
}

TEST(Partitioners, SchedulesMatchParentDigests) {
  // Every group word of the schedules buildPartitions builds for the four
  // fixed schemes, and of two adaptive candidate pools. Recorded when the
  // selector LFSR, its seeds and the pool sizes were still config fields, so
  // turning them into constants provably kept every schedule. A 29-position
  // chain cannot hold 32 interval groups, so that pair is refused, and was
  // refused then too.
  struct Expected {
    SchemeKind scheme;
    std::size_t built;
    std::uint64_t digest;
  };
  const Expected expected[] = {
      {SchemeKind::IntervalBased, 15, 0xbb22f3b9834fa765ULL},
      {SchemeKind::RandomSelection, 16, 0xd8dfea81b70799edULL},
      {SchemeKind::TwoStep, 15, 0xfb12839898da2da1ULL},
      {SchemeKind::DeterministicInterval, 15, 0x16ad6fa2c85486f9ULL},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(schemeName(e.scheme));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t built = 0;
    for (const std::size_t length : {29u, 211u, 1728u, 6173u}) {
      for (const std::size_t groups : {4u, 8u, 16u, 32u}) {
        DiagnosisConfig config;
        config.scheme = e.scheme;
        config.numPartitions = 8;
        config.groupsPerPartition = groups;
        if (e.scheme != SchemeKind::RandomSelection && groups > length) {
          EXPECT_THROW(buildPartitions(config, length), std::invalid_argument);
          continue;
        }
        h = digestPartitions(buildPartitions(config, length), h);
        ++built;
      }
    }
    EXPECT_EQ(built, e.built);
    EXPECT_EQ(h, e.digest);
  }

  struct Pool {
    std::size_t length, partitions, groups, size;
    std::uint64_t digest;
  };
  const Pool pools[] = {{211, 8, 8, 26, 0xdc35273191e056cdULL},
                        {1728, 6, 32, 20, 0x869be59844971421ULL}};
  for (const Pool& pool : pools) {
    SCOPED_TRACE("adaptive pool on " + std::to_string(pool.length));
    DiagnosisConfig config;
    config.scheme = SchemeKind::Adaptive;
    config.numPartitions = pool.partitions;
    config.groupsPerPartition = pool.groups;
    const ScanTopology topology = ScanTopology::singleChain(pool.length);
    const AdaptivePlanner planner(topology, config);
    EXPECT_EQ(planner.pool().size(), pool.size);
    EXPECT_EQ(digestPartitions(planner.pool().partitions(), 0xcbf29ce484222325ULL), pool.digest);
  }
}

TEST(Partitioners, UnbuildableGroupCountIsAPlainUsageError) {
  // The message names the scheme, the group count and the chain length, not
  // a partitioner's internal requirement.
  const auto messageFor = [](SchemeKind scheme, std::size_t groups, std::size_t length) {
    DiagnosisConfig config;
    config.scheme = scheme;
    config.groupsPerPartition = groups;
    try {
      buildPartitions(config, length);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(messageFor(SchemeKind::TwoStep, 16, 4),
            "two-step cannot split a chain of length 4 into 16 groups (the group count must be "
            "a power of two from 2 to the chain length)");
  EXPECT_EQ(messageFor(SchemeKind::TwoStep, 12, 64),
            "two-step cannot split a chain of length 64 into 12 groups (the group count must "
            "be a power of two from 2 to the chain length)");
  EXPECT_EQ(messageFor(SchemeKind::RandomSelection, 12, 64),
            "random-selection cannot split a chain of length 64 into 12 groups (the group "
            "count must be a power of two from 2 to 65536)");
  EXPECT_EQ(messageFor(SchemeKind::IntervalBased, 30, 29),
            "interval-based cannot split a chain of length 29 into 30 groups (the group count "
            "must be from 1 to the chain length)");
  EXPECT_EQ(messageFor(SchemeKind::DeterministicInterval, 0, 29),
            "deterministic-interval cannot split a chain of length 29 into 0 groups (the group "
            "count must be from 1 to the chain length)");
  // Random and two-step stay buildable where the partitioners build them.
  EXPECT_EQ(messageFor(SchemeKind::RandomSelection, 32, 29), "no error");
  EXPECT_EQ(messageFor(SchemeKind::TwoStep, 2, 2), "no error");
}

}  // namespace
}  // namespace scandiag

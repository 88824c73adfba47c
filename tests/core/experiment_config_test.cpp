#include "core/experiment_config.hpp"

#include <gtest/gtest.h>

namespace scandiag {
namespace {

TEST(Presets, Table1MatchesPaperParameters) {
  const WorkloadConfig w = presets::table1Workload();
  EXPECT_EQ(w.numPatterns, 200u);
  EXPECT_EQ(w.numFaults, 500u);
  const DiagnosisConfig c = presets::table1(SchemeKind::TwoStep, 5);
  EXPECT_EQ(c.numPartitions, 5u);
  EXPECT_EQ(c.groupsPerPartition, 4u);
  EXPECT_EQ(c.numPatterns, 200u);
  EXPECT_FALSE(c.pruning);
  EXPECT_EQ(c.scheme, SchemeKind::TwoStep);
}

TEST(Presets, Table2MatchesPaperParameters) {
  const WorkloadConfig w = presets::table2Workload();
  EXPECT_EQ(w.numPatterns, 128u);
  const DiagnosisConfig c = presets::table2(SchemeKind::RandomSelection, true);
  EXPECT_EQ(c.numPartitions, 8u);
  EXPECT_EQ(c.groupsPerPartition, 16u);
  EXPECT_TRUE(c.pruning);
  // Paper: degree-16 primitive selection LFSR — fixed selector hardware that
  // both partition steps of every scheme are built from.
  EXPECT_EQ(IntervalPartitionerConfig{}.lfsr.degree, 16u);
  EXPECT_EQ(RandomSelectionConfig{}.lfsr.degree, 16u);
}

TEST(Presets, SocConfigsUsePaperGroupCounts) {
  EXPECT_EQ(presets::soc1Config(SchemeKind::TwoStep, false).groupsPerPartition, 32u);
  EXPECT_EQ(presets::d695Config(SchemeKind::TwoStep, false).groupsPerPartition, 8u);
  EXPECT_EQ(presets::soc1Config(SchemeKind::TwoStep, false).numPartitions, 8u);
}

TEST(Presets, Fig5SweepsPartitions) {
  const DiagnosisConfig c = presets::fig5Config(SchemeKind::RandomSelection, 16);
  EXPECT_EQ(c.numPartitions, 16u);
  EXPECT_EQ(c.groupsPerPartition, 32u);
  EXPECT_FALSE(c.pruning);
}

TEST(Presets, ConfigsAreUsableEndToEnd) {
  // Every preset must build valid partitions for a representative chain.
  for (const DiagnosisConfig& c :
       {presets::table1(SchemeKind::IntervalBased, 3), presets::table2(SchemeKind::TwoStep, false),
        presets::soc1Config(SchemeKind::RandomSelection, false),
        presets::d695Config(SchemeKind::TwoStep, true)}) {
    const auto partitions = buildPartitions(c, 512);
    EXPECT_EQ(partitions.size(), c.numPartitions);
    for (const Partition& p : partitions) EXPECT_NO_THROW(p.validate());
  }
}

}  // namespace
}  // namespace scandiag

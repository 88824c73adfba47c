// Class-sweep sharding contract tests (test_soc).
//
// The load-bearing claim of the sharded driver: N shard processes, each
// journaling its own fault range, merge back into a report BYTE-identical to
// the unsharded run — including after one shard is killed mid-run and
// resumed. These tests run the whole loop in-process (shard runs are
// independent SweepCheckpoint instances, exactly what separate processes
// would hold) so the identity is asserted on real journals, not mocks.

#include "soc/sharded_sweep.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "obs/metrics.hpp"
#include "soc/journal_merge.hpp"
#include "soc/soc_builder.hpp"
#include "soc/soc_report.hpp"

namespace scandiag {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

DiagnosisConfig sweepConfig() {
  DiagnosisConfig c;
  c.scheme = SchemeKind::TwoStep;
  c.numPartitions = 4;
  c.groupsPerPartition = 4;
  c.numPatterns = 48;
  return c;
}

WorkloadConfig sweepWorkload() {
  WorkloadConfig w;
  w.numPatterns = 48;
  w.numFaults = 24;
  return w;
}

constexpr std::uint64_t kBaseDigest = 0x50C0FFEEBA5ED157ULL;
constexpr const char* kSpec = "rep:s298x3:w2";

SocSweepOptions shardOptions(std::uint32_t index, std::uint32_t count) {
  SocSweepOptions options;
  options.shard.index = index;
  options.shard.count = count;
  options.baseDigest = kBaseDigest;
  options.socSpec = kSpec;
  return options;
}

/// Unsharded reference report, rendered from a live MemoryRecordSink.
std::string unshardedReport(const Soc& soc) {
  MemoryRecordSink collector;
  const SocSweepResult result = runSocClassSweep(soc, sweepWorkload(), sweepConfig(),
                                                 shardOptions(0, 1), {}, nullptr, &collector);
  SocReportMeta meta{kSpec, kBaseDigest};
  return renderSocReport(meta, result.manifests, collector.records());
}

TEST(ParseShardSpec, AcceptsAndRejects) {
  EXPECT_EQ(parseShardSpec("0/4").index, 0u);
  EXPECT_EQ(parseShardSpec("3/4").index, 3u);
  EXPECT_EQ(parseShardSpec("3/4").count, 4u);
  EXPECT_THROW(parseShardSpec("4/4"), std::invalid_argument);
  EXPECT_THROW(parseShardSpec("4"), std::invalid_argument);
  EXPECT_THROW(parseShardSpec("/4"), std::invalid_argument);
  EXPECT_THROW(parseShardSpec("a/b"), std::invalid_argument);
  EXPECT_THROW(parseShardSpec("0/0"), std::invalid_argument);
  // Each field is one whole count below 2^32: no trailing text, sign, space
  // or wrap-around (4294967296/4294967297 once ran the whole sweep as 0/1).
  for (const char* bad : {"0zz/2", "0/2zz", "4294967296/4294967297", "0/4294967296", "0/4/2",
                          " 0/2", "0/2 ", "-1/2", "+0/2", "0/+2", "0/", "/"}) {
    EXPECT_THROW(parseShardSpec(bad), std::invalid_argument) << "shard spec '" << bad << "'";
  }
  EXPECT_EQ(parseShardSpec("4294967294/4294967295").index, 4294967294u);
}

TEST(ShardedSweep, ShardRangesTileTheSweep) {
  const Soc soc = buildReplicatedSoc("s298", 3, 2);
  MemoryRecordSink whole;
  runSocClassSweep(soc, sweepWorkload(), sweepConfig(), shardOptions(0, 1), {}, nullptr, &whole);

  MemoryRecordSink parts;
  for (std::uint32_t s = 0; s < 3; ++s) {
    runSocClassSweep(soc, sweepWorkload(), sweepConfig(), shardOptions(s, 3), {}, nullptr,
                     &parts);
  }
  ASSERT_EQ(parts.records().size(), whole.records().size());
  for (const auto& [key, record] : whole.records()) {
    const auto it = parts.records().find(key);
    ASSERT_NE(it, parts.records().end());
    EXPECT_EQ(it->second.candidateCount, record.candidateCount);
    EXPECT_EQ(it->second.actualCount, record.actualCount);
    EXPECT_EQ(it->second.verdictDigest, record.verdictDigest);
    EXPECT_EQ(it->second.counterDeltas, record.counterDeltas);
  }
}

TEST(ShardedSweep, UnbuildableScheduleIsRefusedBeforeSimulation) {
  // s298's 14 cells over an 8-wide TAM leave core-local chains of 2
  // positions, which two-step cannot split into 16 groups. The sweep says so
  // in plain words before it fault-simulates the class.
  const Soc soc = buildReplicatedSoc("s298", 4, 8);
  DiagnosisConfig config = sweepConfig();
  config.groupsPerPartition = 16;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  std::string message = "no error";
  try {
    runSocClassSweep(soc, sweepWorkload(), config, shardOptions(0, 1), {}, nullptr, nullptr);
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_EQ(message,
            "two-step cannot split a chain of length 2 into 16 groups (the group count must be "
            "a power of two from 2 to the chain length)");
  if constexpr (obs::kMetricsCompiled) {
    const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
    const auto simulated = static_cast<std::size_t>(obs::Counter::FaultsSimulated);
    EXPECT_EQ(after.counters[simulated], before.counters[simulated]);
  }
}

TEST(ShardedSweep, MergedShardJournalsReproduceUnshardedReportByteForByte) {
  const Soc soc = buildReplicatedSoc("s298", 3, 2);
  const std::string reference = unshardedReport(soc);

  std::vector<std::string> journals;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::string path = tempPath("shard4-" + std::to_string(s) + ".journal");
    journals.push_back(path);
    SweepCheckpoint checkpoint(path, kBaseDigest + s, "shard test", false);
    runSocClassSweep(soc, sweepWorkload(), sweepConfig(), shardOptions(s, 4), {}, &checkpoint,
                     nullptr);
  }

  const MergedJournals merged = mergeShardJournals(journals);
  EXPECT_EQ(merged.socSpec, kSpec);
  SocReportMeta meta{merged.socSpec, merged.baseDigest};
  EXPECT_EQ(renderSocReport(meta, merged.manifests, merged.records), reference);
}

TEST(ShardedSweep, KilledShardResumedThenMergedStillByteIdentical) {
  const Soc soc = buildReplicatedSoc("s298", 3, 2);
  const std::string reference = unshardedReport(soc);

  std::vector<std::string> journals;
  for (std::uint32_t s = 0; s < 2; ++s) {
    const std::string path = tempPath("kill-" + std::to_string(s) + ".journal");
    journals.push_back(path);
    SweepCheckpoint checkpoint(path, kBaseDigest + 100 + s, "kill test", false);
    runSocClassSweep(soc, sweepWorkload(), sweepConfig(), shardOptions(s, 2), {}, &checkpoint,
                     nullptr);
  }

  // Simulate shard 1 dying mid-append: keep a prefix of its journal plus a
  // torn half-record tail, then "restart the process" (fresh SweepCheckpoint
  // with resume=true) and re-run the shard.
  {
    std::ifstream in(journals[1], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 200u);
    std::ofstream out(journals[1], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    out.write("\x13\x37", 2);
  }
  {
    SweepCheckpoint resumed(journals[1], kBaseDigest + 101, "kill test", true);
    EXPECT_TRUE(resumed.hadTruncatedTail());
    runSocClassSweep(soc, sweepWorkload(), sweepConfig(), shardOptions(1, 2), {}, &resumed,
                     nullptr);
  }

  const MergedJournals merged = mergeShardJournals(journals);
  SocReportMeta meta{merged.socSpec, merged.baseDigest};
  EXPECT_EQ(renderSocReport(meta, merged.manifests, merged.records), reference);
}

TEST(ShardedSweep, NoDedupEvaluatesEveryInstanceUnderDistinctSweeps) {
  const Soc soc = buildReplicatedSoc("s298", 3, 2);
  SocSweepOptions options = shardOptions(0, 1);
  options.dedupClasses = false;
  MemoryRecordSink collector;
  const SocSweepResult result =
      runSocClassSweep(soc, sweepWorkload(), sweepConfig(), options, {}, nullptr, &collector);
  EXPECT_EQ(result.classCount, 3u);
  ASSERT_EQ(result.classes.size(), 3u);
  // Identical structure → identical class hash, but the ordinal keeps the
  // sweep ids (and so the journal keys) distinct.
  EXPECT_EQ(result.classes[0].classHash, result.classes[1].classHash);
  EXPECT_NE(socClassSweepId(sweepConfig(), result.classes[0].classHash, 0),
            socClassSweepId(sweepConfig(), result.classes[1].classHash, 1));
  // Same class workload → the per-instance reports agree with each other.
  EXPECT_EQ(result.classes[0].report.sumCandidates, result.classes[1].report.sumCandidates);
  EXPECT_EQ(result.classes[0].report.sumActual, result.classes[2].report.sumActual);
}

TEST(ShardedSweep, DedupReportMatchesNoDedupReportPerInstance) {
  // One class evaluation must stand for every sibling: the deduped class row
  // carries the same DR sums a from-scratch evaluation of any instance gets.
  const Soc soc = buildReplicatedSoc("s298", 4, 2);
  MemoryRecordSink dedupRecords;
  const SocSweepResult dedup = runSocClassSweep(soc, sweepWorkload(), sweepConfig(),
                                                shardOptions(0, 1), {}, nullptr, &dedupRecords);
  SocSweepOptions noDedupOptions = shardOptions(0, 1);
  noDedupOptions.dedupClasses = false;
  const SocSweepResult scratch = runSocClassSweep(soc, sweepWorkload(), sweepConfig(),
                                                  noDedupOptions, {}, nullptr, nullptr);
  ASSERT_EQ(dedup.classCount, 1u);
  ASSERT_EQ(scratch.classCount, 4u);
  for (const SocClassRow& row : scratch.classes) {
    EXPECT_EQ(row.report.sumCandidates, dedup.classes[0].report.sumCandidates);
    EXPECT_EQ(row.report.sumActual, dedup.classes[0].report.sumActual);
    EXPECT_EQ(row.responseCount, dedup.classes[0].responseCount);
  }
  EXPECT_EQ(dedup.classes[0].instanceCount, 4u);
}

}  // namespace
}  // namespace scandiag

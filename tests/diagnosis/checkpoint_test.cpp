// SweepCheckpoint / evaluateWithCheckpoint contract tests (test_diagnosis).
//
// The load-bearing claim: a run killed after K faults and resumed — at ANY
// thread count — produces a DrReport and deterministic counter totals
// bit-identical to an uninterrupted run. The kill is simulated exactly the
// way a real one manifests: a journal holding only the first K records (built
// by copying a prefix of a complete run's journal), optionally with a torn
// tail.

#include "diagnosis/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "diagnosis/adaptive_planner.hpp"
#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

DiagnosisConfig smallConfig() {
  DiagnosisConfig c;
  c.scheme = SchemeKind::TwoStep;
  c.numPartitions = 4;
  c.groupsPerPartition = 4;
  c.numPatterns = 64;
  return c;
}

/// Workload + pipeline shared by the tests; built once (fault simulation is
/// the slow part, and determinism makes sharing safe).
struct Fixture {
  CircuitWorkload work;
  DiagnosisPipeline pipeline;

  Fixture()
      : work([] {
          WorkloadConfig wc;
          wc.numPatterns = 64;
          wc.numFaults = 40;
          return prepareWorkload(generateNamedCircuit("s526"), wc);
        }()),
        pipeline(work.topology, smallConfig()) {}
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().reset();
    globalCancelToken().reset();
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().reset();
    globalCancelToken().reset();
    setGlobalThreadCount(0);
  }
};

TEST_F(CheckpointTest, FaultRecordEncodeDecodeRoundTrip) {
  FaultRecord record;
  record.sweepId = 0x0123456789ABCDEFULL;
  record.faultIndex = 41;
  record.candidateCount = 7;
  record.actualCount = 3;
  record.verdictDigest = 0xFEEDFACECAFEBEEFULL;
  record.counterDeltas = {{0, 12}, {5, 1}, {static_cast<std::uint16_t>(obs::kNumCounters - 1), 9}};
  const FaultRecord back = decodeFaultRecord(encodeFaultRecord(record));
  EXPECT_EQ(back.sweepId, record.sweepId);
  EXPECT_EQ(back.faultIndex, record.faultIndex);
  EXPECT_EQ(back.candidateCount, record.candidateCount);
  EXPECT_EQ(back.actualCount, record.actualCount);
  EXPECT_EQ(back.verdictDigest, record.verdictDigest);
  EXPECT_EQ(back.counterDeltas, record.counterDeltas);
}

TEST_F(CheckpointTest, DecodeRejectsMalformedPayloads) {
  const std::string good = encodeFaultRecord(FaultRecord{1, 2, 3, 4, 5, {{0, 6}}});
  EXPECT_NO_THROW(decodeFaultRecord(good));
  EXPECT_THROW(decodeFaultRecord(good.substr(0, good.size() - 1)), JournalCorruptError);
  EXPECT_THROW(decodeFaultRecord(good + "x"), JournalCorruptError);
  // A counter index past the registry cannot be replayed.
  FaultRecord wild{1, 2, 3, 4, 5, {{static_cast<std::uint16_t>(obs::kNumCounters), 6}}};
  EXPECT_THROW(decodeFaultRecord(encodeFaultRecord(wild)), JournalCorruptError);
}

TEST_F(CheckpointTest, SweepIdSeparatesConfigs) {
  DiagnosisConfig a = smallConfig();
  DiagnosisConfig b = smallConfig();
  b.pruning = true;
  DiagnosisConfig c = smallConfig();
  c.numPartitions = 8;
  EXPECT_NE(sweepIdFor(a), sweepIdFor(b));
  EXPECT_NE(sweepIdFor(a), sweepIdFor(c));
  EXPECT_EQ(sweepIdFor(a), sweepIdFor(smallConfig()));
}

TEST_F(CheckpointTest, FreshCheckpointMatchesPlainEvaluate) {
  Fixture& f = fixture();
  const DrReport plain = f.pipeline.evaluate(f.work.responses);

  const std::string path = tempPath("fresh.journal");
  SweepCheckpoint checkpoint(path, 0xD16, "fresh test", /*resume=*/false);
  const std::uint64_t sweepId = sweepIdFor(smallConfig());
  const DrReport ckpt =
      evaluateWithCheckpoint(f.pipeline, f.work.responses, &checkpoint, sweepId);

  EXPECT_EQ(ckpt.dr, plain.dr);
  EXPECT_EQ(ckpt.faults, plain.faults);
  EXPECT_EQ(ckpt.sumCandidates, plain.sumCandidates);
  EXPECT_EQ(ckpt.sumActual, plain.sumActual);
  // Every detected fault became one durable record.
  EXPECT_EQ(readJournal(path).records.size(), plain.faults);
}

TEST_F(CheckpointTest, ResumeAfterPrefixIsBitIdenticalAtAnyThreadCount) {
  Fixture& f = fixture();
  const std::uint64_t sweepId = sweepIdFor(smallConfig());
  const std::uint64_t digest = 0xABCD;

  // Uninterrupted reference run (and its counter totals). Reset after the
  // fixture is (possibly) built so workload-prep counters don't pollute the
  // reference snapshot.
  obs::MetricsRegistry::instance().reset();
  const std::string fullPath = tempPath("full.journal");
  DrReport full;
  {
    SweepCheckpoint checkpoint(fullPath, digest, "resume test", false);
    full = evaluateWithCheckpoint(f.pipeline, f.work.responses, &checkpoint, sweepId);
  }
  obs::MetricsSnapshot fullCounters = obs::MetricsRegistry::instance().snapshot();
  const JournalContents complete = readJournal(fullPath);
  ASSERT_GT(complete.records.size(), 4u);

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (bool tornTail : {false, true}) {
      // "Kill" after K faults: a journal holding a prefix of the records,
      // optionally with a torn frame at EOF (the mid-append kill artifact).
      const std::size_t keep = complete.records.size() / 2;
      const std::string path = tempPath("resume.journal");
      {
        JournalWriter writer = JournalWriter::create(path, digest, "resume test");
        for (std::size_t r = 0; r < keep; ++r) {
          writer.append(complete.records[r].type, complete.records[r].payload);
        }
      }
      if (tornTail) {
        // The tear eats record keep-1; resume must truncate and re-run it.
        std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
      }

      setGlobalThreadCount(threads);
      obs::MetricsRegistry::instance().reset();
      SweepCheckpoint checkpoint(path, digest, "resume test", /*resume=*/true);
      EXPECT_EQ(checkpoint.hadTruncatedTail(), tornTail);
      const DrReport resumed =
          evaluateWithCheckpoint(f.pipeline, f.work.responses, &checkpoint, sweepId);

      EXPECT_EQ(resumed.dr, full.dr) << threads << " threads, torn=" << tornTail;
      EXPECT_EQ(resumed.faults, full.faults);
      EXPECT_EQ(resumed.sumCandidates, full.sumCandidates);
      EXPECT_EQ(resumed.sumActual, full.sumActual);

      const obs::MetricsSnapshot counters = obs::MetricsRegistry::instance().snapshot();
#if SCANDIAG_METRICS_ENABLED
      // written + replayed is invariant; everything else matches the
      // uninterrupted run exactly (the replayed faults' deltas re-applied).
      EXPECT_EQ(counters.counter(obs::Counter::JournalRecordsWritten) +
                    counters.counter(obs::Counter::JournalRecordsReplayed),
                fullCounters.counter(obs::Counter::JournalRecordsWritten));
      EXPECT_EQ(counters.counter(obs::Counter::JournalRecordsReplayed),
                tornTail ? keep - 1 : keep);
#endif
      for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
        const auto counter = static_cast<obs::Counter>(c);
        if (counter == obs::Counter::JournalRecordsWritten ||
            counter == obs::Counter::JournalRecordsReplayed) {
          continue;
        }
        EXPECT_EQ(counters.counters[c], fullCounters.counters[c])
            << obs::counterName(counter) << " at " << threads << " threads";
      }

      // The resumed journal now covers the full sweep and replays completely.
      obs::MetricsRegistry::instance().reset();
      SweepCheckpoint reopened(path, digest, "resume test", true);
      EXPECT_EQ(reopened.loadedRecords(), complete.records.size());
    }
  }
}

TEST_F(CheckpointTest, DuplicateRecordsResolveLastWriteWins) {
  const std::uint64_t digest = 0x99;
  const std::string path = tempPath("dupes.journal");
  {
    JournalWriter writer = JournalWriter::create(path, digest, "dupes");
    writer.append(1, encodeFaultRecord(FaultRecord{7, 3, /*candidates=*/100, 1, 0xA, {}}));
    writer.append(1, encodeFaultRecord(FaultRecord{7, 4, 50, 2, 0xB, {}}));
    // Re-run after a crash between append and observation: same fault again.
    writer.append(1, encodeFaultRecord(FaultRecord{7, 3, /*candidates=*/200, 1, 0xC, {}}));
  }
  SweepCheckpoint checkpoint(path, digest, "dupes", /*resume=*/true);
  EXPECT_EQ(checkpoint.loadedRecords(), 2u);
  const FaultRecord* rec = checkpoint.find(7, 3);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->candidateCount, 200u);
  EXPECT_EQ(rec->verdictDigest, 0xCu);
  EXPECT_EQ(checkpoint.find(7, 99), nullptr);
  EXPECT_EQ(checkpoint.find(8, 3), nullptr);
}

TEST_F(CheckpointTest, ResumeRefusesMismatchedSetupDigest) {
  const std::string path = tempPath("mismatch.journal");
  { SweepCheckpoint checkpoint(path, 0x111, "run A", false); }
  EXPECT_THROW(SweepCheckpoint(path, 0x222, "run B", true), JournalDigestMismatchError);
  // And a fresh create refuses to clobber the existing journal.
  EXPECT_THROW(SweepCheckpoint(path, 0x111, "run A", false), JournalError);
}

TEST_F(CheckpointTest, CancellationUnwindsBetweenFaultsLeavingValidJournal) {
  Fixture& f = fixture();
  const std::string path = tempPath("cancel.journal");
  SweepCheckpoint checkpoint(path, 0x5, "cancel test", false);
  CancellationToken token;
  token.cancel("test cancel");
  const RunControl control{&token, nullptr};
  EXPECT_THROW(evaluateWithCheckpoint(f.pipeline, f.work.responses, &checkpoint,
                                      sweepIdFor(smallConfig()), control),
               OperationCancelled);
  // Pre-cancelled ⇒ no fault ran, and the journal is valid (header only).
  const JournalContents contents = readJournal(path);
  EXPECT_EQ(contents.records.size(), 0u);
  EXPECT_FALSE(contents.truncatedTail);
}

TEST_F(CheckpointTest, VerdictDigestIsStableAcrossRuns) {
  Fixture& f = fixture();
  const FaultResponse& response = f.work.responses.front();
  std::uint64_t a = 0, b = 0;
  const FaultDiagnosis da = f.pipeline.diagnose(response, nullptr, &a);
  const FaultDiagnosis db = f.pipeline.diagnose(response, nullptr, &b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(da.candidateCount, db.candidateCount);
  // And matches the undigested path's numbers.
  const FaultDiagnosis plain = f.pipeline.diagnose(response);
  EXPECT_EQ(da.candidateCount, plain.candidateCount);
  EXPECT_EQ(da.actualCount, plain.actualCount);
}

/// The journaled digest layout: FNV-1a over the verdict words of each step of
/// the realized schedule, adaptive steps prefixed by their pool index.
/// Journals written before and after any refactor of diagnose() must agree.
std::uint64_t expectedDigest(const DiagnosisPipeline& pipeline, const FaultResponse& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const BitVector& row) {
    for (std::size_t w = 0; w < row.wordCount(); ++w) h = fnv1a64(row.word(w), h);
  };
  if (const AdaptivePlanner* planner = pipeline.adaptive()) {
    const AdaptiveOutcome outcome = planner->run(r);
    for (std::size_t s = 0; s < outcome.chosen.size(); ++s) {
      h = fnv1a64(static_cast<std::uint64_t>(outcome.chosen[s]), h);
      fold(outcome.verdicts.failing[s]);
    }
  } else {
    const GroupVerdicts verdicts = pipeline.engine().runReference(pipeline.prepared(), r);
    for (const BitVector& row : verdicts.failing) fold(row);
  }
  return h;
}

TEST_F(CheckpointTest, DiagnoseMatchesWithAndWithoutScratchOnEveryScheme) {
  // The one per-fault entry: a reused worker scratch and a digest request
  // change neither the candidates nor the digest, on every scheme, with and
  // without pruning (the adaptive scheme refuses pruning at construction).
  Fixture& f = fixture();
  for (const SchemeKind scheme : {SchemeKind::TwoStep, SchemeKind::RandomSelection,
                                  SchemeKind::IntervalBased, SchemeKind::Adaptive}) {
    for (const bool pruning : {false, true}) {
      DiagnosisConfig config = smallConfig();
      config.scheme = scheme;
      config.pruning = pruning;
      const std::string what = schemeName(scheme) + (pruning ? "+prune" : "");
      if (scheme == SchemeKind::Adaptive && pruning) {
        EXPECT_THROW(DiagnosisPipeline(f.work.topology, config), std::invalid_argument);
        continue;
      }
      const DiagnosisPipeline pipeline(f.work.topology, config);
      SessionBatchScratch scratch;
      std::size_t checked = 0;
      for (const FaultResponse& r : f.work.responses) {
        if (!r.detected()) continue;
        ++checked;
        std::uint64_t fresh = 0, reused = 0;
        const FaultDiagnosis a = pipeline.diagnose(r, nullptr, &fresh);
        const FaultDiagnosis b = pipeline.diagnose(r, &scratch, &reused);
        const FaultDiagnosis plain = pipeline.diagnose(r, &scratch);
        EXPECT_EQ(a.candidates.cells, b.candidates.cells) << what;
        EXPECT_EQ(a.candidates.cells, plain.candidates.cells) << what;
        EXPECT_EQ(a.candidateCount, b.candidateCount) << what;
        EXPECT_EQ(a.actualCount, b.actualCount) << what;
        EXPECT_EQ(fresh, reused) << what;
        EXPECT_EQ(fresh, expectedDigest(pipeline, r)) << what;
      }
      EXPECT_GT(checked, 0u) << what;
    }
  }
}

}  // namespace
}  // namespace scandiag

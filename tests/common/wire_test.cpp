// Byte pins for every format built on common/wire.hpp: a checkpoint journal,
// a serve request ledger and one frame of every serve message. Each digest
// is FNV-1a over the exact bytes, recorded from the codecs as they stood
// before the shared codec replaced the per-module helpers, so any change to
// a field order, width, length prefix or the frame itself fails here.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "diagnosis/checkpoint.hpp"
#include "serve/accounting.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace scandiag {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::uint64_t fileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return fnv1a64(bytes);
}

std::uint64_t checkpointJournalDigest() {
  const std::string path = tempPath("wire_digest_checkpoint.journal");
  {
    SweepCheckpoint checkpoint(path, 0x5EEDC0DEULL, "wire digest sweep", false);
    for (std::uint32_t i = 0; i < 5; ++i) {
      FaultRecord record;
      record.sweepId = 0xABCDEF0123456789ULL + i;
      record.faultIndex = 7 * i + 3;
      record.candidateCount = 40 + i;
      record.actualCount = 2 + i % 3;
      record.verdictDigest = 0x9E3779B97F4A7C15ULL * (i + 1);
      for (std::uint16_t c = 0; c < i; ++c) {
        record.counterDeltas.emplace_back(static_cast<std::uint16_t>(3 * c + 1),
                                          (std::uint64_t{1} << (8 * c)) + i);
      }
      checkpoint.record(record);
    }
    ShardMetaRecord meta;
    meta.shardIndex = 1;
    meta.shardCount = 3;
    meta.baseDigest = 0x0123456789ABCDEFULL;
    meta.socSpec = "rep:s298x4:w8";
    checkpoint.appendAux(kShardMetaRecordType, encodeShardMetaRecord(meta));
    SweepManifestRecord manifest;
    manifest.sweepId = 0xABCDEF0123456789ULL;
    manifest.classHash = 0xFEDCBA9876543210ULL;
    manifest.classOrdinal = 2;
    manifest.responseCount = 314;
    manifest.instanceCount = 4;
    manifest.className = "s298#0";
    checkpoint.appendAux(kSweepManifestRecordType, encodeSweepManifestRecord(manifest));
  }
  return fileDigest(path);
}

std::uint64_t ledgerDigest() {
  const std::string path = tempPath("wire_digest_ledger.journal");
  {
    serve::RequestAccounting accounting(path);
    const serve::RequestOutcome outcomes[] = {serve::RequestOutcome::Ok,
                                              serve::RequestOutcome::Shed,
                                              serve::RequestOutcome::Degraded,
                                              serve::RequestOutcome::Aborted};
    std::uint64_t id = 1;
    for (const serve::RequestOutcome outcome : outcomes) {
      accounting.accepted(id);
      accounting.terminal(id, outcome);
      ++id;
    }
    accounting.accepted(id);  // still in flight
  }
  return fileDigest(path);
}

std::vector<std::uint64_t> frameDigests() {
  using namespace serve;
  std::vector<std::string> frames;
  frames.push_back(encodeFrame(kPingRequestFrame, ""));

  DiagnoseRequest inject;
  inject.kind = DiagnoseRequest::Kind::InjectFault;
  inject.gateName = "g1375";
  inject.stuckAt1 = false;
  frames.push_back(encodeFrame(kDiagnoseRequestFrame, encodeDiagnoseRequest(inject)));

  DiagnoseRequest log;
  log.kind = DiagnoseRequest::Kind::TesterLog;
  log.logText = "sessions 8 16\nverdict 0 3 fail sig 1f\nverdict 7 15 fail sig 2a\n";
  frames.push_back(encodeFrame(kDiagnoseRequestFrame, encodeDiagnoseRequest(log)));

  DiagnoseRequest defect;
  defect.kind = DiagnoseRequest::Kind::DefectScenario;
  defect.defectSpec = "2,bridge,open";
  defect.defectSeed = 0x5E7E;
  defect.defectIndex = 41;
  frames.push_back(encodeFrame(kDiagnoseRequestFrame, encodeDiagnoseRequest(defect)));

  DiagnoseReply ok;
  ok.status = ReplyStatus::Ok;
  ok.requestId = 77;
  ok.detected = true;
  ok.resolved = true;
  ok.confidence = 1.0;
  ok.partitionsUsed = 8;
  ok.partitionsTotal = 8;
  ok.candidateCells = {5, 17, 1023};
  frames.push_back(encodeFrame(kDiagnoseReplyFrame, encodeDiagnoseReply(ok)));

  DiagnoseReply deadline;
  deadline.status = ReplyStatus::Deadline;
  deadline.requestId = 78;
  deadline.detected = true;
  deadline.resolved = false;
  deadline.confidence = 0.34375;
  deadline.partitionsUsed = 3;
  deadline.partitionsTotal = 8;
  deadline.candidateCells = {0, 1, 2, 64, 65, 4095};
  deadline.message = "deadline after 3 of 8 partitions";
  frames.push_back(encodeFrame(kDiagnoseReplyFrame, encodeDiagnoseReply(deadline)));

  StatsReply stats;
  stats.accepted = 1000;
  stats.ok = 900;
  stats.shed = 50;
  stats.degraded = 30;
  stats.aborted = 20;
  stats.framesRejected = 7;
  frames.push_back(encodeFrame(kStatsReplyFrame, encodeStatsReply(stats)));

  std::vector<std::uint64_t> digests;
  for (const std::string& frame : frames) digests.push_back(fnv1a64(frame));
  return digests;
}

TEST(Wire, FormatsMatchParentDigests) {
  EXPECT_EQ(checkpointJournalDigest(), 0x3ef0b97d9b43594cULL);
  EXPECT_EQ(ledgerDigest(), 0x6bed4ab9522c6770ULL);
  // ping, inject / log / defect requests, Ok and Deadline replies, stats reply
  const std::vector<std::uint64_t> expected = {
      0x8397cbddf97fe7c7ULL, 0xd00d032c05d9e59bULL, 0x8be02f54b49e9196ULL,
      0x446152eb1326e9a3ULL, 0x8699382644b21553ULL, 0x91c7dab5d79871f7ULL,
      0x82488ff4ce266b1bULL};
  EXPECT_EQ(frameDigests(), expected);
}

}  // namespace
}  // namespace scandiag

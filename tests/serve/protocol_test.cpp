// Protocol message codecs: every message round-trips losslessly, and every
// decoder rejects content that lies about itself (bad enums, candidate
// counts beyond the payload, trailing bytes) with FrameFormatError — a frame
// that passed its CRC is still untrusted.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/wire.hpp"

namespace scandiag::serve {
namespace {

TEST(Protocol, DiagnoseRequestInjectRoundTrip) {
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::InjectFault;
  request.gateName = "g1375";
  request.stuckAt1 = false;
  const DiagnoseRequest back = decodeDiagnoseRequest(encodeDiagnoseRequest(request));
  EXPECT_EQ(back.kind, DiagnoseRequest::Kind::InjectFault);
  EXPECT_EQ(back.gateName, "g1375");
  EXPECT_FALSE(back.stuckAt1);
  EXPECT_TRUE(back.logText.empty());
}

TEST(Protocol, DiagnoseRequestLogRoundTrip) {
  DiagnoseRequest request;
  request.kind = DiagnoseRequest::Kind::TesterLog;
  request.logText = "sessions 8 16\nverdict 0 0 pass\nverdict 0 1 fail\n";
  const DiagnoseRequest back = decodeDiagnoseRequest(encodeDiagnoseRequest(request));
  EXPECT_EQ(back.kind, DiagnoseRequest::Kind::TesterLog);
  EXPECT_EQ(back.logText, request.logText);
}

TEST(Protocol, DiagnoseRequestUnknownKindRejected) {
  DiagnoseRequest request;
  std::string payload = encodeDiagnoseRequest(request);
  payload[0] = 0x7F;  // kind is the first u16
  EXPECT_THROW((void)decodeDiagnoseRequest(payload), FrameFormatError);
}

TEST(Protocol, DiagnoseRequestTrailingBytesRejected) {
  std::string payload = encodeDiagnoseRequest(DiagnoseRequest{});
  payload.push_back('\0');
  EXPECT_THROW((void)decodeDiagnoseRequest(payload), FrameFormatError);
}

TEST(Protocol, DiagnoseReplyRoundTrip) {
  DiagnoseReply reply;
  reply.status = ReplyStatus::Deadline;
  reply.requestId = 42;
  reply.detected = true;
  reply.resolved = false;
  reply.confidence = 0.375;
  reply.partitionsUsed = 3;
  reply.partitionsTotal = 8;
  reply.candidateCells = {1, 5, 200, 4096};
  reply.message = "deadline hit";
  const DiagnoseReply back = decodeDiagnoseReply(encodeDiagnoseReply(reply));
  EXPECT_EQ(back.status, ReplyStatus::Deadline);
  EXPECT_EQ(back.requestId, 42u);
  EXPECT_TRUE(back.detected);
  EXPECT_FALSE(back.resolved);
  EXPECT_EQ(back.confidence, 0.375);
  EXPECT_EQ(back.partitionsUsed, 3u);
  EXPECT_EQ(back.partitionsTotal, 8u);
  EXPECT_EQ(back.candidateCells, (std::vector<std::uint32_t>{1, 5, 200, 4096}));
  EXPECT_EQ(back.message, "deadline hit");
}

TEST(Protocol, DiagnoseReplyBadStatusRejected) {
  std::string payload = encodeDiagnoseReply(DiagnoseReply{});
  payload[0] = 0x44;  // status is the first u16
  EXPECT_THROW((void)decodeDiagnoseReply(payload), FrameFormatError);
}

TEST(Protocol, DiagnoseReplyCandidateCountLieRejectedBeforeReserve) {
  // Build a syntactically valid reply, then splice in a candidate count the
  // remaining payload cannot hold: the decoder must reject it from the count
  // alone, not reserve a multi-gigabyte vector.
  DiagnoseReply reply;
  reply.candidateCells = {1, 2, 3};
  std::string payload = encodeDiagnoseReply(reply);
  // The payload ends with [u32 count][3 x u32 cells]; the count starts 16
  // bytes from the end.
  const std::size_t countPos = payload.size() - 12 - 4;
  payload[countPos] = static_cast<char>(0xFF);
  payload[countPos + 1] = static_cast<char>(0xFF);
  payload[countPos + 2] = static_cast<char>(0xFF);
  payload[countPos + 3] = static_cast<char>(0x7F);
  EXPECT_THROW((void)decodeDiagnoseReply(payload), FrameFormatError);
}

TEST(Protocol, StatsReplyRoundTrip) {
  StatsReply stats;
  stats.accepted = 100;
  stats.ok = 90;
  stats.shed = 5;
  stats.degraded = 3;
  stats.aborted = 2;
  stats.framesRejected = 7;
  const StatsReply back = decodeStatsReply(encodeStatsReply(stats));
  EXPECT_EQ(back.accepted, 100u);
  EXPECT_EQ(back.ok, 90u);
  EXPECT_EQ(back.shed, 5u);
  EXPECT_EQ(back.degraded, 3u);
  EXPECT_EQ(back.aborted, 2u);
  EXPECT_EQ(back.framesRejected, 7u);
}

TEST(Protocol, StatsReplyTruncationRejected) {
  const std::string payload = encodeStatsReply(StatsReply{});
  EXPECT_THROW((void)decodeStatsReply(payload.substr(0, payload.size() - 1)),
               FrameFormatError);
}

TEST(Protocol, ReplyStatusNamesAreStable) {
  EXPECT_STREQ(replyStatusName(ReplyStatus::Ok), "ok");
  EXPECT_STREQ(replyStatusName(ReplyStatus::Busy), "busy");
  EXPECT_STREQ(replyStatusName(ReplyStatus::Deadline), "deadline");
  EXPECT_STREQ(replyStatusName(ReplyStatus::Error), "error");
}

}  // namespace
}  // namespace scandiag::serve

#include "serve/protocol.hpp"

#include "common/wire.hpp"

namespace scandiag::serve {

namespace {

/// Caps on string fields, enforced on decode before allocation. Gate names
/// are tens of bytes; tester logs grow with session count but half the frame
/// cap leaves room for the rest of the message around a worst-case log.
constexpr std::size_t kMaxGateName = 1024;
constexpr std::size_t kMaxLogText = kMaxFramePayload / 2;
constexpr std::size_t kMaxMessage = 4096;
constexpr std::size_t kMaxDefectSpec = 256;

}  // namespace

const char* replyStatusName(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::Ok: return "ok";
    case ReplyStatus::Busy: return "busy";
    case ReplyStatus::Deadline: return "deadline";
    case ReplyStatus::Error: return "error";
  }
  return "unknown";
}

std::string encodeDiagnoseRequest(const DiagnoseRequest& request) {
  std::string out;
  wire::putU16(out, static_cast<std::uint16_t>(request.kind));
  wire::putString(out, request.gateName);
  wire::putU16(out, request.stuckAt1 ? 1 : 0);
  wire::putString(out, request.logText);
  if (request.kind == DiagnoseRequest::Kind::DefectScenario) {
    wire::putString(out, request.defectSpec);
    wire::putU64(out, request.defectSeed);
    wire::putU32(out, request.defectIndex);
  }
  return out;
}

DiagnoseRequest decodeDiagnoseRequest(const std::string& payload) {
  wire::Cursor<FrameFormatError> cur(payload);
  DiagnoseRequest request;
  const std::uint16_t kind = cur.u16();
  if (kind > static_cast<std::uint16_t>(DiagnoseRequest::Kind::DefectScenario)) {
    throw FrameFormatError("diagnose request: unknown kind " + std::to_string(kind));
  }
  request.kind = static_cast<DiagnoseRequest::Kind>(kind);
  request.gateName = cur.str(kMaxGateName);
  request.stuckAt1 = cur.u16() != 0;
  request.logText = cur.str(kMaxLogText);
  if (request.kind == DiagnoseRequest::Kind::DefectScenario) {
    request.defectSpec = cur.str(kMaxDefectSpec);
    request.defectSeed = cur.u64();
    request.defectIndex = cur.u32();
  }
  cur.expectExhausted("diagnose request");
  return request;
}

std::string encodeDiagnoseReply(const DiagnoseReply& reply) {
  std::string out;
  wire::putU16(out, static_cast<std::uint16_t>(reply.status));
  wire::putU64(out, reply.requestId);
  wire::putU16(out, reply.detected ? 1 : 0);
  wire::putU16(out, reply.resolved ? 1 : 0);
  wire::putDouble(out, reply.confidence);
  wire::putU32(out, reply.partitionsUsed);
  wire::putU32(out, reply.partitionsTotal);
  wire::putString(out, reply.message);
  wire::putU32(out, static_cast<std::uint32_t>(reply.candidateCells.size()));
  for (std::uint32_t cell : reply.candidateCells) wire::putU32(out, cell);
  return out;
}

DiagnoseReply decodeDiagnoseReply(const std::string& payload) {
  wire::Cursor<FrameFormatError> cur(payload);
  DiagnoseReply reply;
  const std::uint16_t status = cur.u16();
  if (status > static_cast<std::uint16_t>(ReplyStatus::Error)) {
    throw FrameFormatError("diagnose reply: unknown status " + std::to_string(status));
  }
  reply.status = static_cast<ReplyStatus>(status);
  reply.requestId = cur.u64();
  reply.detected = cur.u16() != 0;
  reply.resolved = cur.u16() != 0;
  reply.confidence = cur.f64();
  reply.partitionsUsed = cur.u32();
  reply.partitionsTotal = cur.u32();
  reply.message = cur.str(kMaxMessage);
  const std::uint32_t count = cur.u32();
  // Each cell is 4 bytes; a count that promises more cells than the payload
  // has bytes left is a lie — reject before reserving.
  if (count > cur.remaining() / 4) {
    throw FrameFormatError("diagnose reply: candidate count " + std::to_string(count) +
                           " overruns payload (" + std::to_string(cur.remaining()) +
                           " bytes left)");
  }
  reply.candidateCells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) reply.candidateCells.push_back(cur.u32());
  cur.expectExhausted("diagnose reply");
  return reply;
}

std::string encodeStatsReply(const StatsReply& stats) {
  std::string out;
  wire::putU64(out, stats.accepted);
  wire::putU64(out, stats.ok);
  wire::putU64(out, stats.shed);
  wire::putU64(out, stats.degraded);
  wire::putU64(out, stats.aborted);
  wire::putU64(out, stats.framesRejected);
  return out;
}

StatsReply decodeStatsReply(const std::string& payload) {
  wire::Cursor<FrameFormatError> cur(payload);
  StatsReply stats;
  stats.accepted = cur.u64();
  stats.ok = cur.u64();
  stats.shed = cur.u64();
  stats.degraded = cur.u64();
  stats.aborted = cur.u64();
  stats.framesRejected = cur.u64();
  cur.expectExhausted("stats reply");
  return stats;
}

}  // namespace scandiag::serve

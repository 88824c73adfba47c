// Frame codec contract: CRC-framed length-prefixed messages where every
// malformation maps to a typed error — FrameFormatError for structural lies
// (wild lengths, truncation mid-frame), FrameCorruptError for CRC mismatches
// — and an incomplete prefix is "wait for more bytes", never an error.

#include "serve/frame.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/wire.hpp"

namespace scandiag::serve {
namespace {

TEST(Frame, EncodeDecodeRoundTrip) {
  const std::string encoded = encodeFrame(0x20, "hello frame");
  std::size_t consumed = 0;
  const auto frame = decodeFrame(encoded, &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 0x20);
  EXPECT_EQ(frame->payload, "hello frame");
  EXPECT_EQ(consumed, encoded.size());
}

TEST(Frame, EmptyPayloadRoundTrips) {
  const std::string encoded = encodeFrame(0x10, "");
  std::size_t consumed = 0;
  const auto frame = decodeFrame(encoded, &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 0x10);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Frame, IncompletePrefixIsNotAnError) {
  const std::string encoded = encodeFrame(0x20, "partial");
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    std::size_t consumed = 0;
    const auto frame = decodeFrame(encoded.substr(0, cut), &consumed);
    EXPECT_FALSE(frame.has_value()) << "cut at " << cut;
  }
}

TEST(Frame, FlippedPayloadByteIsCorrupt) {
  std::string encoded = encodeFrame(0x20, "payload bytes");
  for (std::size_t pos = kFrameHeaderBytes; pos < encoded.size(); ++pos) {
    std::string bad = encoded;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    std::size_t consumed = 0;
    EXPECT_THROW((void)decodeFrame(bad, &consumed), FrameCorruptError) << "pos " << pos;
  }
}

TEST(Frame, FlippedCrcByteIsCorrupt) {
  std::string encoded = encodeFrame(0x20, "x");
  encoded[5] = static_cast<char>(encoded[5] ^ 0x01);  // inside the CRC field
  std::size_t consumed = 0;
  EXPECT_THROW((void)decodeFrame(encoded, &consumed), FrameCorruptError);
}

TEST(Frame, OversizedLengthIsFormatErrorBeforeAllocation) {
  // Header claims 512 MiB; the decoder must reject it from the 8 header
  // bytes alone instead of waiting for (or allocating) that much.
  std::string bytes;
  const std::uint32_t huge = 512u * 1024 * 1024;
  wire::putU32(bytes, huge);
  wire::putU32(bytes, 0);  // CRC never checked: length fails first
  std::size_t consumed = 0;
  EXPECT_THROW((void)decodeFrame(bytes, &consumed), FrameFormatError);
}

TEST(Frame, UndersizedLengthIsFormatError) {
  // A frame body must hold at least the u16 type tag.
  std::string bytes;
  wire::putU32(bytes, 1);
  wire::putU32(bytes, 0);
  bytes.push_back('x');
  std::size_t consumed = 0;
  EXPECT_THROW((void)decodeFrame(bytes, &consumed), FrameFormatError);
}

TEST(Frame, EncodeRejectsOversizedPayload) {
  EXPECT_THROW((void)encodeFrame(0x20, std::string(kMaxFramePayload, 'a')),
               FrameFormatError);
}

TEST(Frame, BackToBackFramesDecodeSequentially) {
  const std::string a = encodeFrame(1, "first");
  const std::string b = encodeFrame(2, "second");
  std::string stream = a + b;
  std::size_t consumed = 0;
  const auto first = decodeFrame(stream, &consumed);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "first");
  stream.erase(0, consumed);
  const auto second = decodeFrame(stream, &consumed);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, "second");
}

TEST(WireCursor, ReadsBackWhatHelpersWrote) {
  std::string bytes;
  wire::putU16(bytes, 0xBEEF);
  wire::putU32(bytes, 0xDEADBEEF);
  wire::putU64(bytes, 0x0123456789ABCDEFull);
  wire::putDouble(bytes, 0.734375);
  wire::putString(bytes, "cells");
  wire::Cursor<FrameFormatError> cur{std::string_view(bytes)};
  EXPECT_EQ(cur.u16(), 0xBEEF);
  EXPECT_EQ(cur.u32(), 0xDEADBEEFu);
  EXPECT_EQ(cur.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(cur.f64(), 0.734375);
  EXPECT_EQ(cur.str(16), "cells");
  EXPECT_TRUE(cur.exhausted());
}

TEST(WireCursor, TruncatedIntegerThrowsFormatError) {
  std::string bytes;
  wire::putU32(bytes, 7);
  wire::Cursor<FrameFormatError> cur{std::string_view(bytes)};
  (void)cur.u16();
  (void)cur.u16();
  EXPECT_THROW((void)cur.u16(), FrameFormatError);
}

TEST(WireCursor, StringLengthBeyondCapThrowsBeforeAllocating) {
  std::string bytes;
  wire::putU32(bytes, 0x40000000u);  // claims a 1 GiB string
  wire::Cursor<FrameFormatError> cur{std::string_view(bytes)};
  EXPECT_THROW((void)cur.str(1024), FrameFormatError);
}

TEST(WireCursor, StringLengthBeyondRemainingThrows) {
  std::string bytes;
  wire::putString(bytes, "abc");
  bytes.pop_back();  // length says 3, two bytes present
  wire::Cursor<FrameFormatError> cur{std::string_view(bytes)};
  EXPECT_THROW((void)cur.str(16), FrameFormatError);
}

TEST(WireCursor, ExpectExhaustedRejectsTrailingBytes) {
  std::string bytes;
  wire::putU16(bytes, 1);
  bytes.push_back('\0');
  wire::Cursor<FrameFormatError> cur{std::string_view(bytes)};
  (void)cur.u16();
  EXPECT_THROW(cur.expectExhausted("test message"), FrameFormatError);
}

}  // namespace
}  // namespace scandiag::serve

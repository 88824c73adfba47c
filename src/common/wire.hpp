// The one little-endian codec and CRC frame behind every byte format
// scandiag writes: checkpoint journals and the serve request ledger on disk,
// and the serve protocol on the socket.
//
// Integers are u16/u32/u64 little-endian, doubles their IEEE-754 bits as a
// u64, strings a u32 length then the bytes. The read side is a bounds-checked
// cursor that never trusts a length field: every payload it reads came off a
// socket or back from disk after a crash, so a wild length must surface as a
// typed error — the one its caller names — never as a multi-gigabyte
// allocation or an out-of-bounds read.
//
// A frame is [u32 len][u32 crc32(type ‖ payload)][u16 type][payload], with
// len = 2 + payload bytes. putFrame builds one and checkFrame checks one;
// each caller keeps its own payload cap and maps the outcomes to its errors.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/journal.hpp"  // crc32

namespace scandiag::wire {

inline void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void putDouble(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  putU64(out, bits);
}

/// Length-prefixed string; the prefix is validated against `maxLen` on read.
inline void putString(std::string& out, std::string_view s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader over one payload. Every accessor throws `Error` when
/// the payload is too short — a truncated or length-lying message can never
/// read past the buffer.
template <class Error>
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  std::uint16_t u16() { return static_cast<std::uint16_t>(integer(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(integer(4)); }
  std::uint64_t u64() { return integer(8); }

  double f64() {
    const std::uint64_t bits = integer(8);
    double v;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Reads a length-prefixed string, rejecting prefixes beyond `maxLen` or
  /// beyond the remaining payload *before* allocating.
  std::string str(std::size_t maxLen) {
    const std::uint32_t len = u32();
    if (len > maxLen) {
      throw Error("wire: string length " + std::to_string(len) + " exceeds cap " +
                  std::to_string(maxLen));
    }
    if (len > remaining()) {
      throw Error("wire: string length " + std::to_string(len) + " overruns payload (" +
                  std::to_string(remaining()) + " bytes left)");
    }
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

  /// Messages and records are fixed layouts: trailing bytes mean a framing
  /// bug or a forged message, both of which must be loud.
  void expectExhausted(const char* what) const {
    if (!exhausted()) {
      throw Error(std::string("wire: ") + what + " has " + std::to_string(remaining()) +
                  " trailing byte(s)");
    }
  }

 private:
  std::uint64_t integer(std::size_t width) {
    if (width > remaining()) {
      throw Error("wire: message truncated (need " + std::to_string(width) + " bytes, have " +
                  std::to_string(remaining()) + ")");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Bytes of a frame before its type tag: u32 len + u32 crc.
inline constexpr std::size_t kFramePrefix = 8;

/// Appends one frame. The caller enforces its payload cap first.
inline void putFrame(std::string& out, std::uint16_t type, std::string_view payload) {
  out.reserve(out.size() + kFramePrefix + 2 + payload.size());
  std::string tag;
  putU16(tag, type);
  putU32(out, static_cast<std::uint32_t>(tag.size() + payload.size()));
  putU32(out, crc32(payload.data(), payload.size(), crc32(tag.data(), tag.size())));
  out.append(tag);
  out.append(payload);
}

enum class FrameStatus {
  Ok,          // the whole frame is present and its CRC matches
  Incomplete,  // `bytes` is a prefix of a frame whose length is in range
  BadLength,   // len is outside [2, maxLen]
  BadCrc,      // the whole frame is present but its CRC does not match
};

struct FrameView {
  FrameStatus status = FrameStatus::Incomplete;
  std::uint32_t len = 0;  // the length field, once its four bytes are present
  // Set when status is Ok:
  std::uint16_t type = 0;
  std::string_view payload;  // the bytes after the type tag, a view into `bytes`
  std::size_t size = 0;      // kFramePrefix + len: what the frame occupies
};

/// Checks the frame at the start of `bytes` in the order every reader needs:
/// the length range first — from the prefix alone, so a wild length costs no
/// allocation — then whether the whole frame is present, then the CRC.
inline FrameView checkFrame(std::string_view bytes, std::uint32_t maxLen) {
  FrameView frame;
  if (bytes.size() < kFramePrefix) return frame;
  Cursor<std::invalid_argument> prefix(bytes);
  frame.len = prefix.u32();
  const std::uint32_t storedCrc = prefix.u32();
  if (frame.len < 2 || frame.len > maxLen) {
    frame.status = FrameStatus::BadLength;
    return frame;
  }
  if (bytes.size() - kFramePrefix < frame.len) return frame;
  const std::string_view body = bytes.substr(kFramePrefix, frame.len);
  if (crc32(body.data(), body.size()) != storedCrc) {
    frame.status = FrameStatus::BadCrc;
    return frame;
  }
  frame.status = FrameStatus::Ok;
  frame.type = Cursor<std::invalid_argument>(body).u16();
  frame.payload = body.substr(2);
  frame.size = kFramePrefix + frame.len;
  return frame;
}

}  // namespace scandiag::wire

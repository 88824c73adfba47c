// CRC-framed socket protocol: the journal's frame over a fd.
//
// A serve frame is the same frame a journal record is, built and checked by
// the same two functions (wire::putFrame / wire::checkFrame,
// common/wire.hpp):
//
//     [u32 len][u32 crc32(type ‖ payload)][u16 messageType][message bytes]
//
// so the protocol inherits the journal's property that a length-lying,
// bit-flipped, or truncated frame is *detected*, never silently accepted.
// What differs is the trust model: a journal's writer is this same program,
// while a socket peer is arbitrary — possibly buggy, slow, or hostile. The
// frame layer therefore enforces, before any allocation or blocking read:
//
//  * a payload cap (kMaxFramePayload, far below the journal's 16 MiB — a
//    diagnosis request is small; a 1 GiB length prefix is an attack, and the
//    reply must be a typed FrameFormatError, not a bad_alloc),
//  * poll(2) deadlines on every read/write so a slowloris peer (drip-feeding
//    one byte per second) costs one handler a bounded amount of time and
//    surfaces as FrameTimeoutError,
//  * typed errors for each failure class, so the server can count
//    serve_frames_rejected for protocol garbage while treating peer
//    disconnects (PeerClosedError) as the non-event they are.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/wire.hpp"

namespace scandiag::serve {

/// Any frame-layer failure; catch subtypes to distinguish causes.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structurally malformed: length prefix out of range, message truncated
/// relative to its own length fields, unknown layout. The peer spoke the
/// wrong protocol (or a fuzzer spoke on purpose).
class FrameFormatError : public FrameError {
 public:
  using FrameError::FrameError;
};

/// Frame bytes fully present but the CRC does not match — corruption in
/// flight or a forged frame.
class FrameCorruptError : public FrameError {
 public:
  using FrameError::FrameError;
};

/// The peer went quiet past the I/O deadline (slowloris, dead client).
class FrameTimeoutError : public FrameError {
 public:
  using FrameError::FrameError;
};

/// read/write/poll failed at the OS level (EPIPE, ECONNRESET, ...).
class FrameIoError : public FrameError {
 public:
  using FrameError::FrameError;
};

/// Clean EOF on a frame boundary — the peer hung up. Not protocol garbage;
/// typed separately so servers don't count it as a rejected frame.
class PeerClosedError : public FrameError {
 public:
  using FrameError::FrameError;
};

/// Hard cap on one frame's payload (type tag + message). Diagnosis requests
/// and replies are a few KiB; 1 MiB leaves generous headroom for tester-log
/// payloads while keeping a hostile length prefix harmless.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Bytes of framing overhead preceding each payload (u32 len + u32 crc).
inline constexpr std::size_t kFrameHeaderBytes = wire::kFramePrefix;

struct Frame {
  std::uint16_t type = 0;
  std::string payload;  // message bytes after the type tag, CRC-verified
};

/// Encodes one frame: header + [u16 type][payload]. Throws FrameFormatError
/// if payload would exceed kMaxFramePayload (callers should never hit this;
/// it guards against a bug assembling an oversized reply).
std::string encodeFrame(std::uint16_t type, std::string_view payload);

/// Decodes the first complete frame from `bytes`.
///
/// Returns nullopt when `bytes` is a valid *prefix* of a frame (caller needs
/// more data — this is how the socket reader distinguishes "short read" from
/// "garbage"). Sets `consumed` to the bytes used when a frame is returned.
/// Throws FrameFormatError / FrameCorruptError on malformed or rotted bytes.
/// This is the pure, fd-free core — the fuzz harness targets it directly.
std::optional<Frame> decodeFrame(std::string_view bytes, std::size_t* consumed);

/// Reads one frame from `fd`, enforcing `timeout` as a deadline on the WHOLE
/// frame (not per byte — a slowloris peer cannot reset the clock by dripping).
/// Throws PeerClosedError on clean EOF at a frame boundary, FrameFormatError
/// on EOF mid-frame or malformed bytes, FrameCorruptError on CRC mismatch,
/// FrameTimeoutError past the deadline, FrameIoError on OS-level failure.
Frame readFrame(int fd, std::chrono::milliseconds timeout);

/// Writes one encoded frame to `fd` under the same whole-frame deadline.
/// Throws FrameTimeoutError / FrameIoError.
void writeFrame(int fd, std::uint16_t type, std::string_view payload,
                std::chrono::milliseconds timeout);

}  // namespace scandiag::serve

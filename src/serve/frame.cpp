#include "serve/frame.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace scandiag::serve {

namespace {

std::chrono::steady_clock::time_point deadlineFrom(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

/// Milliseconds until `deadline`, clamped for poll(2); throws on expiry.
int pollBudgetMs(std::chrono::steady_clock::time_point deadline, const char* what) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) {
    throw FrameTimeoutError(std::string("frame ") + what + " deadline exceeded");
  }
  constexpr std::int64_t kMaxPoll = 60'000;  // re-check the deadline at least every minute
  return static_cast<int>(left.count() < kMaxPoll ? left.count() : kMaxPoll);
}

void waitReadable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, pollBudgetMs(deadline, "read"));
    if (rc > 0) return;  // readable, error, or hangup — read(2) reports which
    if (rc == 0) continue;  // poll slice elapsed; pollBudgetMs re-checks the deadline
    if (errno == EINTR) continue;
    throw FrameIoError(std::string("poll(read): ") + strerror(errno));
  }
}

void waitWritable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    struct pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, pollBudgetMs(deadline, "write"));
    if (rc > 0) return;
    if (rc == 0) continue;
    if (errno == EINTR) continue;
    throw FrameIoError(std::string("poll(write): ") + strerror(errno));
  }
}

/// Reads exactly `size` bytes under `deadline`. Returns false on EOF before
/// the first byte (clean close); throws FrameFormatError on EOF mid-buffer.
bool readExact(int fd, char* out, std::size_t size,
               std::chrono::steady_clock::time_point deadline) {
  std::size_t got = 0;
  while (got < size) {
    waitReadable(fd, deadline);
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;
      throw FrameFormatError("peer closed mid-frame (" + std::to_string(got) + " of " +
                             std::to_string(size) + " bytes)");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw FrameIoError(std::string("read: ") + strerror(errno));
  }
  return true;
}

void writeAll(int fd, const char* data, std::size_t size,
              std::chrono::steady_clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < size) {
    waitWritable(fd, deadline);
    // MSG_NOSIGNAL: a peer that hung up mid-write is a FrameIoError (EPIPE)
    // for this request, not a SIGPIPE for the whole process.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    throw FrameIoError(std::string("write: ") + strerror(errno));
  }
}

/// The socket's reading of a frame check: more bytes needed (nullopt), a
/// frame, or the typed error for a wild length or a bad CRC.
std::optional<Frame> frameFrom(const wire::FrameView& check, std::size_t* consumed) {
  switch (check.status) {
    case wire::FrameStatus::Incomplete:
      return std::nullopt;
    case wire::FrameStatus::BadLength:
      throw FrameFormatError("frame payload length " + std::to_string(check.len) +
                             " out of range [2, " + std::to_string(kMaxFramePayload) + "]");
    case wire::FrameStatus::BadCrc:
      throw FrameCorruptError("frame CRC mismatch");
    case wire::FrameStatus::Ok:
      break;
  }
  if (consumed) *consumed = check.size;
  return Frame{check.type, std::string(check.payload)};
}

}  // namespace

std::string encodeFrame(std::uint16_t type, std::string_view payload) {
  const std::size_t total = 2 + payload.size();  // type tag + message
  if (total > kMaxFramePayload) {
    throw FrameFormatError("frame payload " + std::to_string(total) + " exceeds cap " +
                           std::to_string(kMaxFramePayload));
  }
  std::string out;
  wire::putFrame(out, type, payload);
  return out;
}

std::optional<Frame> decodeFrame(std::string_view bytes, std::size_t* consumed) {
  return frameFrom(wire::checkFrame(bytes, kMaxFramePayload), consumed);
}

Frame readFrame(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = deadlineFrom(timeout);
  std::string bytes(kFrameHeaderBytes, '\0');
  if (!readExact(fd, bytes.data(), bytes.size(), deadline)) {
    throw PeerClosedError("peer closed connection");
  }
  // The header alone settles the length BEFORE allocating: a hostile prefix
  // must cost nothing. A length in range leaves the frame incomplete.
  const wire::FrameView header = wire::checkFrame(bytes, kMaxFramePayload);
  (void)frameFrom(header, nullptr);
  bytes.resize(kFrameHeaderBytes + header.len);
  if (!readExact(fd, bytes.data() + kFrameHeaderBytes, header.len, deadline)) {
    throw FrameFormatError("peer closed between frame header and payload");
  }
  return *frameFrom(wire::checkFrame(bytes, kMaxFramePayload), nullptr);
}

void writeFrame(int fd, std::uint16_t type, std::string_view payload,
                std::chrono::milliseconds timeout) {
  const std::string encoded = encodeFrame(type, payload);
  writeAll(fd, encoded.data(), encoded.size(), deadlineFrom(timeout));
}

}  // namespace scandiag::serve

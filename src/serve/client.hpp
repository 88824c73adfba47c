// scandiag_client: the polite side of the serve protocol.
//
// A fleet front-end sheds load on purpose (BUSY replies, refused connects
// during restart windows); a client that hammers back immediately turns a
// momentary overload into a synchronized stampede. This client retries both
// failure classes — connect refusal and BUSY — with capped exponential
// backoff plus seeded jitter (Xoroshiro128, so tests are reproducible), and
// gives up with a typed error once the attempt budget is spent.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/protocol.hpp"

namespace scandiag::serve {

/// The request could not be served within the retry budget (connect kept
/// failing, server kept shedding, or the socket I/O failed).
class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  std::string socketPath;
  /// Attempts total (first try + retries). 1 = no retrying.
  std::size_t maxAttempts = 5;
  /// Seeds the retry backoff jitter (see client.cpp).
  std::uint64_t jitterSeed = 0xC11E57;
  /// Whole-frame I/O deadline per read/write.
  std::size_t ioTimeoutMs = 5000;
};

/// Connects, sends one diagnosis request, reads the reply. Retries connect
/// failures, BUSY replies, and dropped connections (server draining) with
/// backoff; returns the first terminal reply (Ok/Deadline/Error). Throws
/// ClientError when every attempt was shed or failed.
DiagnoseReply requestDiagnosis(const ClientOptions& options, const DiagnoseRequest& request);

/// Round-trips a ping frame (no retry — a liveness probe should not lie
/// about latency). Throws ClientError / FrameError subtypes on failure.
void ping(const ClientOptions& options);

/// Fetches the server's live request totals (with the same retry policy as
/// requestDiagnosis for connect failures).
StatsReply fetchStats(const ClientOptions& options);

}  // namespace scandiag::serve

// Crash-safe request accounting: every request's lifecycle journaled so a
// SIGKILLed server replays to an exact ledger.
//
// Built directly on common/journal (CRC-framed, fsync'd appends, torn tails
// truncated on reopen). Two record shapes, both carrying the server-assigned
// request id:
//
//   ACCEPTED <id>                    appended the moment a request enters
//                                    accounting (admitted to a handler, or
//                                    about to be shed at admission)
//   OK/SHED/DEGRADED/ABORTED <id>    appended when the request reaches its
//                                    terminal state
//
// The ledger invariant — accepted == ok + shed + degraded + aborted — holds
// by construction at replay: an ACCEPTED with no terminal record means the
// process died mid-request, and replay books it as aborted (that is exactly
// what happened to the client). The chaos CI job asserts the sum after a
// SIGKILL + restart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/journal.hpp"

namespace scandiag::serve {

enum class RequestOutcome : std::uint16_t {
  Ok = 0,        // full diagnosis replied
  Shed = 1,      // BUSY at admission, no diagnosis ran
  Degraded = 2,  // deadline hit, partial superset replied
  Aborted = 3,   // failed/cancelled before a successful reply (frame garbage,
                 // I/O error, request-level error, drain cancellation, crash)
};

const char* requestOutcomeName(RequestOutcome outcome);

/// What a journal replays to (or what a live server reports via stats).
struct ServeLedger {
  std::uint64_t accepted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t aborted = 0;
  /// Of `aborted`: requests with no terminal record — in flight at the crash.
  std::uint64_t abortedInFlight = 0;
  /// A torn frame was truncated at EOF (normal kill artifact).
  bool truncatedTail = false;

  std::uint64_t terminals() const { return ok + shed + degraded + aborted; }
  bool balanced() const { return accepted == terminals(); }
};

/// Append-side accounting. Thread-safe (JournalWriter serializes appends);
/// every record is durable when the call returns.
class RequestAccounting {
 public:
  /// Creates `path` or reopens it for append (a restarted server keeps
  /// appending to the same ledger; replay handles the union). Throws
  /// JournalError subtypes on unreadable/corrupt/mismatched journals.
  explicit RequestAccounting(const std::string& path);

  void accepted(std::uint64_t requestId);
  void terminal(std::uint64_t requestId, RequestOutcome outcome);

  /// First request id this server incarnation may assign: one past the
  /// highest id already journaled, so a restart never reuses an id (replay
  /// treats a reused id as corruption).
  std::uint64_t nextRequestId() const { return nextRequestId_; }

  const std::string& path() const { return writer_->path(); }

 private:
  std::unique_ptr<JournalWriter> writer_;
  std::uint64_t nextRequestId_ = 1;
};

/// Replays a ledger journal. Throws JournalError subtypes on corrupt bytes,
/// FrameFormatError-shaped JournalFormatError on unknown record types,
/// malformed payloads, or an id accepted twice or closed twice. A torn tail
/// is reported via the ledger, not thrown.
ServeLedger replayLedger(const std::string& path);

}  // namespace scandiag::serve

#include "serve/accounting.hpp"

#include <sys/stat.h>

#include <unordered_map>

#include "common/wire.hpp"

namespace scandiag::serve {

namespace {

// Journal record types (the journal reserves 0 for its own header).
constexpr std::uint16_t kAcceptedRecord = 1;
constexpr std::uint16_t kOkRecord = 2;
constexpr std::uint16_t kShedRecord = 3;
constexpr std::uint16_t kDegradedRecord = 4;
constexpr std::uint16_t kAbortedRecord = 5;

constexpr const char* kSetupInfo = "scandiag serve request ledger v1";

std::uint64_t ledgerDigest() { return fnv1a64(std::string(kSetupInfo)); }

std::uint16_t recordTypeFor(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::Ok: return kOkRecord;
    case RequestOutcome::Shed: return kShedRecord;
    case RequestOutcome::Degraded: return kDegradedRecord;
    case RequestOutcome::Aborted: return kAbortedRecord;
  }
  return kAbortedRecord;
}

bool fileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string encodeId(std::uint64_t requestId) {
  std::string payload;
  wire::putU64(payload, requestId);
  return payload;
}

std::uint64_t decodeId(const JournalRecord& record) {
  if (record.payload.size() != 8) {
    throw JournalFormatError("ledger record type " + std::to_string(record.type) +
                             " has payload of " + std::to_string(record.payload.size()) +
                             " bytes (want 8)");
  }
  return wire::Cursor<JournalFormatError>(record.payload).u64();
}

}  // namespace

const char* requestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::Ok: return "ok";
    case RequestOutcome::Shed: return "shed";
    case RequestOutcome::Degraded: return "degraded";
    case RequestOutcome::Aborted: return "aborted";
  }
  return "unknown";
}

RequestAccounting::RequestAccounting(const std::string& path) {
  if (fileExists(path)) {
    JournalContents contents;
    writer_ = std::make_unique<JournalWriter>(
        JournalWriter::openForAppend(path, ledgerDigest(), &contents));
    for (const JournalRecord& record : contents.records) {
      const std::uint64_t id = decodeId(record);
      if (id >= nextRequestId_) nextRequestId_ = id + 1;
    }
  } else {
    writer_ = std::make_unique<JournalWriter>(
        JournalWriter::create(path, ledgerDigest(), kSetupInfo));
  }
}

void RequestAccounting::accepted(std::uint64_t requestId) {
  writer_->append(kAcceptedRecord, encodeId(requestId));
}

void RequestAccounting::terminal(std::uint64_t requestId, RequestOutcome outcome) {
  writer_->append(recordTypeFor(outcome), encodeId(requestId));
}

ServeLedger replayLedger(const std::string& path) {
  const JournalContents contents = readJournal(path);
  if (contents.setupDigest != ledgerDigest()) {
    throw JournalDigestMismatchError("journal " + path + " is not a serve request ledger (" +
                                     contents.setupInfo + ")");
  }
  ServeLedger ledger;
  ledger.truncatedTail = contents.truncatedTail;
  // id -> terminal recorded? ACCEPTED inserts false; a terminal flips to
  // true. Survivors at the end were in flight when the process died.
  std::unordered_map<std::uint64_t, bool> open;
  open.reserve(contents.records.size());
  for (const JournalRecord& record : contents.records) {
    const std::uint64_t id = decodeId(record);
    switch (record.type) {
      case kAcceptedRecord:
        if (!open.emplace(id, false).second) {
          throw JournalFormatError("ledger: request " + std::to_string(id) +
                                   " accepted twice");
        }
        ++ledger.accepted;
        break;
      case kOkRecord:
      case kShedRecord:
      case kDegradedRecord:
      case kAbortedRecord: {
        const auto it = open.find(id);
        if (it == open.end() || it->second) {
          throw JournalFormatError("ledger: terminal record for request " + std::to_string(id) +
                                   " without a matching open ACCEPTED");
        }
        it->second = true;
        if (record.type == kOkRecord) ++ledger.ok;
        else if (record.type == kShedRecord) ++ledger.shed;
        else if (record.type == kDegradedRecord) ++ledger.degraded;
        else ++ledger.aborted;
        break;
      }
      default:
        throw JournalFormatError("ledger: unknown record type " + std::to_string(record.type));
    }
  }
  for (const auto& [id, closed] : open) {
    if (!closed) {
      ++ledger.aborted;
      ++ledger.abortedInFlight;
    }
  }
  return ledger;
}

}  // namespace scandiag::serve

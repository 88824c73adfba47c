// Request-accounting ledger: the crash-exact invariant under test is
// accepted == ok + shed + degraded + aborted after ANY prefix of appends —
// replay books an ACCEPTED with no terminal as aborted-in-flight, a torn
// tail truncates cleanly, and anything else (foreign journals, double
// terminals, reused ids) is a typed error.

#include "serve/accounting.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/journal.hpp"

namespace scandiag::serve {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(Accounting, LifecycleReplaysToBalancedLedger) {
  const std::string path = tempPath("ledger_lifecycle.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.accepted(2);
    accounting.terminal(2, RequestOutcome::Shed);
    accounting.accepted(3);
    accounting.terminal(3, RequestOutcome::Degraded);
    accounting.accepted(4);
    accounting.terminal(4, RequestOutcome::Aborted);
  }
  const ServeLedger ledger = replayLedger(path);
  EXPECT_EQ(ledger.accepted, 4u);
  EXPECT_EQ(ledger.ok, 1u);
  EXPECT_EQ(ledger.shed, 1u);
  EXPECT_EQ(ledger.degraded, 1u);
  EXPECT_EQ(ledger.aborted, 1u);
  EXPECT_EQ(ledger.abortedInFlight, 0u);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_FALSE(ledger.truncatedTail);
}

TEST(Accounting, InFlightAtCrashReplaysAsAborted) {
  const std::string path = tempPath("ledger_crash.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.accepted(2);  // the process "dies" here: no terminal record
    accounting.accepted(3);
  }
  const ServeLedger ledger = replayLedger(path);
  EXPECT_EQ(ledger.accepted, 3u);
  EXPECT_EQ(ledger.ok, 1u);
  EXPECT_EQ(ledger.aborted, 2u);
  EXPECT_EQ(ledger.abortedInFlight, 2u);
  EXPECT_TRUE(ledger.balanced());
}

TEST(Accounting, TornTailIsTruncatedAndStillBalances) {
  const std::string path = tempPath("ledger_torn.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.accepted(2);
  }
  // SIGKILL mid-append: chop bytes off the last record.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  const ServeLedger ledger = replayLedger(path);
  EXPECT_TRUE(ledger.truncatedTail);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.accepted, 1u);  // request 2's ACCEPTED was the torn frame
  EXPECT_EQ(ledger.ok, 1u);
}

TEST(Accounting, ReopenContinuesRequestIdsPastTheJournal) {
  const std::string path = tempPath("ledger_reopen.journal");
  {
    RequestAccounting accounting(path);
    EXPECT_EQ(accounting.nextRequestId(), 1u);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.accepted(7);  // in flight at the "crash"
  }
  {
    // A restarted server must never reuse id 1 or 7 — replay treats a reused
    // id as corruption.
    RequestAccounting accounting(path);
    EXPECT_EQ(accounting.nextRequestId(), 8u);
    accounting.accepted(8);
    accounting.terminal(8, RequestOutcome::Ok);
  }
  const ServeLedger ledger = replayLedger(path);
  EXPECT_EQ(ledger.accepted, 3u);
  EXPECT_EQ(ledger.ok, 2u);
  EXPECT_EQ(ledger.abortedInFlight, 1u);
  EXPECT_TRUE(ledger.balanced());
}

TEST(Accounting, TerminalWithoutAcceptedIsCorruption) {
  const std::string path = tempPath("ledger_orphan.journal");
  {
    RequestAccounting accounting(path);
    accounting.terminal(9, RequestOutcome::Ok);
  }
  EXPECT_THROW((void)replayLedger(path), JournalFormatError);
}

TEST(Accounting, DoubleTerminalIsCorruption) {
  const std::string path = tempPath("ledger_double.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.terminal(1, RequestOutcome::Aborted);
  }
  EXPECT_THROW((void)replayLedger(path), JournalFormatError);
}

TEST(Accounting, ReusedAcceptedIdIsCorruption) {
  // A server resumes ids past the journaled maximum, so an id accepted twice
  // cannot come from a real run; counting both would unbalance the ledger.
  const std::string path = tempPath("ledger_reused.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
    accounting.accepted(1);
  }
  EXPECT_THROW((void)replayLedger(path), JournalFormatError);
}

TEST(Accounting, ForeignJournalIsDigestMismatch) {
  const std::string path = tempPath("ledger_foreign.journal");
  {
    JournalWriter writer = JournalWriter::create(path, /*setupDigest=*/0x1234,
                                                 "some other subsystem");
    writer.append(1, std::string(8, '\0'));
  }
  EXPECT_THROW((void)replayLedger(path), JournalDigestMismatchError);
  EXPECT_THROW((void)RequestAccounting(path), JournalError);
}

TEST(Accounting, FlippedRecordByteIsCorruption) {
  const std::string path = tempPath("ledger_flip.journal");
  {
    RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, RequestOutcome::Ok);
  }
  // Flip a byte in the interior (inside the first record after the header) —
  // the CRC must catch it.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size - 5);
  char byte = 0;
  file.seekg(size - 5);
  file.get(byte);
  file.seekp(size - 5);
  file.put(static_cast<char>(byte ^ 0x20));
  file.close();
  EXPECT_THROW((void)replayLedger(path), JournalError);
}

TEST(Accounting, RequestOutcomeNamesAreStable) {
  EXPECT_STREQ(requestOutcomeName(RequestOutcome::Ok), "ok");
  EXPECT_STREQ(requestOutcomeName(RequestOutcome::Shed), "shed");
  EXPECT_STREQ(requestOutcomeName(RequestOutcome::Degraded), "degraded");
  EXPECT_STREQ(requestOutcomeName(RequestOutcome::Aborted), "aborted");
}

}  // namespace
}  // namespace scandiag::serve

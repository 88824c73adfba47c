// CancellationToken / Watchdog / RunControl contract tests (test_common).
//
// Deadline trips are made deterministic with zero budgets (trip on first
// poll) and generous budgets (never trip inside a test) — no sleeps, no
// wall-clock races. The watchdog_cancels counter assertions are split on
// SCANDIAG_METRICS_ENABLED, same as the obs shim tests.

#include "common/watchdog.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace scandiag {
namespace {

using std::chrono::milliseconds;

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::instance().reset(); }
  void TearDown() override { obs::MetricsRegistry::instance().reset(); }

  std::uint64_t cancels() const {
    return obs::MetricsRegistry::instance().snapshot().counter(obs::Counter::WatchdogCancels);
  }
};

TEST_F(WatchdogTest, TokenFirstCancelReasonWins) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_STREQ(token.reason(), "");
  token.cancel("first");
  token.cancel("second");
  EXPECT_TRUE(token.cancelled());
  EXPECT_STREQ(token.reason(), "first");
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_STREQ(token.reason(), "");
}

TEST_F(WatchdogTest, DefaultRunControlIsInert) {
  const RunControl control;
  EXPECT_FALSE(control.shouldStop());
  EXPECT_NO_THROW(control.throwIfStopped());
}

TEST_F(WatchdogTest, PreCancelledTokenUnwindsWithReason) {
  CancellationToken token;
  token.cancel("signal");
  const RunControl control{&token, nullptr};
  EXPECT_TRUE(control.shouldStop());
  try {
    control.throwIfStopped();
    FAIL() << "expected OperationCancelled";
  } catch (const OperationCancelled& e) {
    EXPECT_NE(std::string(e.what()).find("signal"), std::string::npos) << e.what();
  }
}

TEST_F(WatchdogTest, ZeroTotalBudgetTripsOnFirstPoll) {
  CancellationToken token;
  Watchdog watchdog(token, milliseconds(0));
  EXPECT_FALSE(watchdog.tripped());
  EXPECT_TRUE(watchdog.poll());
  EXPECT_TRUE(watchdog.tripped());
  EXPECT_TRUE(token.cancelled());
  EXPECT_NE(std::string(token.reason()).find("watchdog"), std::string::npos)
      << token.reason();
#if SCANDIAG_METRICS_ENABLED
  EXPECT_EQ(cancels(), 1u);
#else
  EXPECT_EQ(cancels(), 0u);
#endif
}

TEST_F(WatchdogTest, GenerousBudgetDoesNotTrip) {
  CancellationToken token;
  Watchdog watchdog(token, std::chrono::hours(24));
  const RunControl control{&token, &watchdog};
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(control.shouldStop());
  EXPECT_FALSE(watchdog.tripped());
  EXPECT_EQ(cancels(), 0u);
}

TEST_F(WatchdogTest, TripCountsExactlyOnceAcrossRepeatedPolls) {
  CancellationToken token;
  Watchdog watchdog(token, milliseconds(0));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(watchdog.poll());
#if SCANDIAG_METRICS_ENABLED
  EXPECT_EQ(cancels(), 1u);
#endif
}

TEST_F(WatchdogTest, ExternalCancellationReportedThroughPoll) {
  CancellationToken token;
  Watchdog watchdog(token, std::chrono::hours(24));
  EXPECT_FALSE(watchdog.poll());
  token.cancel("external");
  // poll() relays an externally-cancelled token without counting a trip.
  EXPECT_TRUE(watchdog.poll());
  EXPECT_FALSE(watchdog.tripped());
  EXPECT_EQ(cancels(), 0u);
}

TEST_F(WatchdogTest, GlobalTokenIsProcessWideAndResettable) {
  CancellationToken& token = globalCancelToken();
  token.reset();
  EXPECT_FALSE(token.cancelled());
  token.cancel("test");
  EXPECT_TRUE(globalCancelToken().cancelled());
  token.reset();
  EXPECT_FALSE(globalCancelToken().cancelled());
}

}  // namespace
}  // namespace scandiag

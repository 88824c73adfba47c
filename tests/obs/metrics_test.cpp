// MetricsRegistry / shim / JSON-export contract tests (test_obs).
//
// The registry API (add/addPhase/recordWorker/reset/snapshot) compiles in
// every build, so most of these run under SCANDIAG_METRICS=OFF too; only the
// shim behaviour tests are split on SCANDIAG_METRICS_ENABLED — under OFF the
// shims must record *nothing*, and that is asserted rather than skipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace scandiag::obs {
namespace {

/// Leaves the registry zeroed for the next test in this process.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
  void TearDown() override { MetricsRegistry::instance().reset(); }
};

TEST_F(MetricsTest, NamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    names.push_back(counterName(static_cast<Counter>(i)));
  for (std::size_t i = 0; i < kNumPhases; ++i)
    names.push_back(phaseName(static_cast<Phase>(i)));
  for (std::size_t a = 0; a < names.size(); ++a) {
    EXPECT_NE(names[a].find_first_not_of("abcdefghijklmnopqrstuvwxyz_"), 0u) << names[a];
    EXPECT_EQ(names[a].rfind("unknown", 0), std::string::npos) << names[a];
    for (std::size_t b = a + 1; b < names.size(); ++b) EXPECT_NE(names[a], names[b]);
  }
  // These names are the JSON schema; renaming one is a schema_version bump.
  EXPECT_STREQ(counterName(Counter::SessionsRun), "sessions_run");
  EXPECT_STREQ(phaseName(Phase::GoodMachineSim), "good_machine_sim");
}

TEST_F(MetricsTest, AddIsVisibleInSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, 7);
  registry.add(Counter::SessionsRun);
  registry.add(Counter::FaultsSimulated, 3);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::SessionsRun), 8u);
  EXPECT_EQ(snap.counter(Counter::FaultsSimulated), 3u);
  EXPECT_EQ(snap.counter(Counter::RetrySessionsSpent), 0u);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, 5);
  registry.addPhase(Phase::Recovery, 100);
  registry.recordWorker(2, 50);
  registry.reset();
  EXPECT_EQ(registry.snapshot(), MetricsSnapshot{});
}

TEST_F(MetricsTest, CounterSaturatesInsteadOfWrapping) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.add(Counter::SessionsRun, UINT64_MAX - 5);
  registry.add(Counter::SessionsRun, 3);  // still exact below the cap
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX - 2);
  registry.add(Counter::SessionsRun, 10);  // would wrap: clamps
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX);
  registry.add(Counter::SessionsRun, 1);  // sticks at the cap
  EXPECT_EQ(registry.snapshot().counter(Counter::SessionsRun), UINT64_MAX);
}

TEST_F(MetricsTest, ConcurrentAddsAreExact) {
  // 8 threads hammering the same counters; totals must be exact (the CAS loop
  // never drops an increment). Run under TSan in CI for race-freedom.
  MetricsRegistry& registry = MetricsRegistry::instance();
  constexpr std::size_t kThreads = 8, kIters = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (std::size_t i = 0; i < kIters; ++i) {
        registry.add(Counter::SessionsRun);
        registry.add(Counter::SignatureWordsHashed, 3);
        registry.addPhase(Phase::FaultySim, 1);
        registry.recordWorker(1, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::SessionsRun), kThreads * kIters);
  EXPECT_EQ(snap.counter(Counter::SignatureWordsHashed), 3u * kThreads * kIters);
  EXPECT_EQ(snap.phase(Phase::FaultySim).calls, kThreads * kIters);
  EXPECT_EQ(snap.phase(Phase::FaultySim).nanos, kThreads * kIters);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].worker, 1u);
  EXPECT_EQ(snap.workers[0].tasks, kThreads * kIters);
}

TEST_F(MetricsTest, WorkerLanesBeyondTrackingLimitAreDropped) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.recordWorker(kMaxTrackedWorkers, 10);
  registry.recordWorker(kMaxTrackedWorkers + 7, 10);
  EXPECT_TRUE(registry.snapshot().workers.empty());
  registry.recordWorker(kMaxTrackedWorkers - 1, 10);
  ASSERT_EQ(registry.snapshot().workers.size(), 1u);
  EXPECT_EQ(registry.snapshot().workers[0].worker, kMaxTrackedWorkers - 1);
}

TEST_F(MetricsTest, ShimRespectsCompileTimeAndRuntimeSwitches) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  count(Counter::FaultsDiagnosed);
  count(Counter::FaultsDiagnosed, 2);
  if constexpr (kMetricsCompiled) {
    EXPECT_EQ(registry.snapshot().counter(Counter::FaultsDiagnosed), 3u);
  } else {
    // OFF build: the shim is a no-op.
    EXPECT_EQ(registry.snapshot().counter(Counter::FaultsDiagnosed), 0u);
  }
}

TEST_F(MetricsTest, PhaseScopeAccumulatesIntoItsPhase) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  {
    PhaseScope outer(Phase::SignatureCompare);
    PhaseScope inner(Phase::SignatureCompare);
  }
  { WorkerScope lane(3); }
  const MetricsSnapshot snap = registry.snapshot();
  if constexpr (kMetricsCompiled) {
    EXPECT_EQ(snap.phase(Phase::SignatureCompare).calls, 2u);
    EXPECT_EQ(snap.phase(Phase::CandidateIntersection).calls, 0u);
    ASSERT_EQ(snap.workers.size(), 1u);
    EXPECT_EQ(snap.workers[0].worker, 3u);
    EXPECT_EQ(snap.workers[0].tasks, 1u);
  } else {
    EXPECT_EQ(snap, MetricsSnapshot{});
  }
}

MetricsSnapshot populatedSnapshot() {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset();
  for (std::size_t i = 0; i < kNumCounters; ++i)
    registry.add(static_cast<Counter>(i), 11 * (i + 1));
  // Values above 2^53 and the saturation cap must survive the JSON round trip
  // exactly — doubles cannot represent them.
  registry.add(Counter::SignatureWordsHashed, (std::uint64_t{1} << 60) + 1);
  registry.add(Counter::SessionsRun, UINT64_MAX);  // saturates
  for (std::size_t i = 0; i < kNumPhases; ++i)
    registry.addPhase(static_cast<Phase>(i), 1000 * (i + 1));
  registry.recordWorker(0, 123);
  registry.recordWorker(5, 456);
  return registry.snapshot();
}

TEST_F(MetricsTest, JsonExportRoundTripsExactly) {
  const MetricsSnapshot snap = populatedSnapshot();
  MetricsContext context;
  context.circuit = "s9234";
  context.scheme = "two-step";
  context.threads = 4;

  std::ostringstream out;
  {
    JsonWriter writer(out);
    writeMetricsObject(writer, snap, context);
  }
  const JsonValue root = parseJson(out.str());
  EXPECT_EQ(root.at("schema_version").asUint(), kMetricsSchemaVersion);
  EXPECT_EQ(root.at("circuit").asString(), "s9234");
  EXPECT_EQ(root.at("scheme").asString(), "two-step");
  EXPECT_EQ(root.at("threads").asUint(), 4u);
  EXPECT_EQ(root.at("counters").at("sessions_run").asUint(), UINT64_MAX);

  const MetricsSnapshot parsed = snapshotFromJson(root);
  EXPECT_EQ(parsed, snap);
}

TEST_F(MetricsTest, WriteMetricsFileRoundTrips) {
  const MetricsSnapshot snap = populatedSnapshot();
  const std::string path = ::testing::TempDir() + "scandiag_metrics_test.json";
  writeMetricsFile(path, MetricsContext{"s953", "interval", 2});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parseJson(buffer.str());
  EXPECT_EQ(root.at("circuit").asString(), "s953");
  EXPECT_EQ(snapshotFromJson(root), snap);
}

TEST_F(MetricsTest, SnapshotFromJsonIsLoudOnUnknownNames) {
  EXPECT_THROW(snapshotFromJson(parseJson(R"({"counters": {"bogus_counter": 1}})")),
               std::invalid_argument);
  EXPECT_THROW(
      snapshotFromJson(parseJson(R"({"phases": {"bogus": {"nanos": 1, "calls": 1}}})")),
      std::invalid_argument);
  // Missing sections are fine: all-zero snapshot.
  EXPECT_EQ(snapshotFromJson(parseJson("{}")), MetricsSnapshot{});
}

}  // namespace
}  // namespace scandiag::obs

// The threading determinism contract (docs/ARCHITECTURE.md §"Threading"):
// every parallelized experiment driver must produce bit-identical output for
// any thread count. These tests run the same workloads at 1, 2, and 8
// threads — 1 thread being the exact serial code path — and require exact
// equality of every integer sum and every double, for all three partitioning
// schemes, with and without superposition pruning (pruning also exercises
// the lazily built MISR linear model under concurrency).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/watchdog.hpp"
#include "core/scandiag.hpp"
#include "obs/metrics.hpp"
#include "soc/soc_builder.hpp"

namespace scandiag {
namespace {

/// Restores the global pool to the environment default even if a test fails.
class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    setGlobalThreadCount(0);
    obs::MetricsRegistry::instance().reset();
  }

  static constexpr std::size_t kThreadCounts[] = {1, 2, 8};
};

const CircuitWorkload& s953Workload() {
  static const CircuitWorkload work = [] {
    const Netlist nl = generateNamedCircuit("s953");
    WorkloadConfig wc;
    wc.numPatterns = 96;
    wc.numFaults = 150;
    return prepareWorkload(nl, wc);
  }();
  return work;
}

DiagnosisConfig configFor(SchemeKind scheme, bool pruning) {
  DiagnosisConfig config;
  config.scheme = scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 8;
  config.numPatterns = 96;
  config.pruning = pruning;
  return config;
}

void expectSameReport(const DrReport& expected, const DrReport& actual,
                      const std::string& what) {
  EXPECT_EQ(expected.faults, actual.faults) << what;
  EXPECT_EQ(expected.sumCandidates, actual.sumCandidates) << what;
  EXPECT_EQ(expected.sumActual, actual.sumActual) << what;
  EXPECT_EQ(expected.dr, actual.dr) << what;  // bitwise: same sums, same divide
}

TEST_F(ParallelDeterminism, EvaluateIsBitIdenticalAcrossThreadCounts) {
  const CircuitWorkload& work = s953Workload();
  for (SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    for (bool pruning : {false, true}) {
      const DiagnosisPipeline pipeline(work.topology, configFor(scheme, pruning));
      setGlobalThreadCount(1);
      const DrReport serial = pipeline.evaluate(work.responses);
      for (std::size_t threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        const std::string what = schemeName(scheme) + (pruning ? "+prune" : "") + " @" +
                                 std::to_string(threads) + " threads";
        expectSameReport(serial, pipeline.evaluate(work.responses), what);
      }
    }
  }
}

TEST_F(ParallelDeterminism, EvaluateSweepIsBitIdenticalAcrossThreadCounts) {
  const CircuitWorkload& work = s953Workload();
  for (SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const DiagnosisPipeline pipeline(work.topology, configFor(scheme, false));
    setGlobalThreadCount(1);
    const std::vector<double> serial = pipeline.evaluateSweep(work.responses);
    ASSERT_EQ(serial.size(), pipeline.partitions().size());
    for (std::size_t threads : kThreadCounts) {
      setGlobalThreadCount(threads);
      const std::vector<double> parallel = pipeline.evaluateSweep(work.responses);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t p = 0; p < serial.size(); ++p) {
        EXPECT_EQ(serial[p], parallel[p])
            << schemeName(scheme) << " prefix " << p + 1 << " @" << threads << " threads";
      }
    }
  }
}

// evaluateSocDr's lanes claim cores largest netlist first. Seven cores of 17
// to 5,844 gates, listed out of size order, with s298 twice (two cores
// sharing one netlist); at 2 and 3 threads the lanes are fewer than the
// cores, so the claims are uneven.
const Soc& unevenSoc() {
  static const Soc soc = buildSocFromModules(
      "uneven", {"s298", "s9234", "s27", "s1423", "s5378", "s298", "s953"}, 1);
  return soc;
}

// Fewer lanes than cores (2, 3) and more (8).
constexpr std::size_t kSocThreadCounts[] = {2, 3, 8};

WorkloadConfig smallSocWorkload() {
  WorkloadConfig workload;
  workload.numPatterns = 64;
  workload.numFaults = 40;
  return workload;
}

TEST_F(ParallelDeterminism, SocDriverIsBitIdenticalAcrossThreadCounts) {
  const Soc mini = buildSocFromModules("mini", {"s298", "s344", "s526"}, 1);
  const WorkloadConfig workload = smallSocWorkload();
  for (const Soc* soc : {&mini, &unevenSoc()}) {
    for (SchemeKind scheme :
         {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
      DiagnosisConfig config = configFor(scheme, false);
      config.numPatterns = workload.numPatterns;
      setGlobalThreadCount(1);
      const std::vector<SocDrRow> serial = evaluateSocDr(*soc, workload, config);
      ASSERT_EQ(serial.size(), soc->coreCount());
      for (std::size_t threads : {1, 2, 3, 8}) {
        setGlobalThreadCount(threads);
        const std::vector<SocDrRow> parallel = evaluateSocDr(*soc, workload, config);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t k = 0; k < serial.size(); ++k) {
          EXPECT_EQ(serial[k].failingCore, soc->core(k).name);
          EXPECT_EQ(serial[k].failingCore, parallel[k].failingCore);
          expectSameReport(serial[k].report, parallel[k].report,
                           soc->name() + " " + schemeName(scheme) + " core " +
                               serial[k].failingCore + " @" + std::to_string(threads) +
                               " threads");
        }
      }
    }
  }
}

TEST_F(ParallelDeterminism, SocDriverCancellationUnwindsAtFourThreads) {
  const WorkloadConfig workload = smallSocWorkload();
  DiagnosisConfig config = configFor(SchemeKind::TwoStep, false);
  config.numPatterns = workload.numPatterns;
  setGlobalThreadCount(4);
  CancellationToken token;
  token.cancel("test trip");
  EXPECT_THROW(evaluateSocDr(unevenSoc(), workload, config, RunControl{&token, nullptr}),
               OperationCancelled);
  // A watchdog with no budget trips on the first poll, inside a lane.
  CancellationToken fresh;
  Watchdog watchdog(fresh, std::chrono::milliseconds(0));
  EXPECT_THROW(evaluateSocDr(unevenSoc(), workload, config, RunControl{&fresh, &watchdog}),
               OperationCancelled);
  EXPECT_TRUE(fresh.cancelled());
}

/// Runs `body` once per thread count and requires the *metrics counters* it
/// produced (registry reset just before each run) to match the 1-thread run
/// exactly. This is the counter-determinism contract the CI bench-regression
/// gate relies on: counters tally work items, never scheduling decisions.
using MetricsCounters = std::array<std::uint64_t, obs::kNumCounters>;

template <typename Body>
void expectCountersThreadInvariant(const std::size_t (&threadCounts)[3], Body&& body,
                                   const std::string& what) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  setGlobalThreadCount(1);
  registry.reset();
  body();
  const MetricsCounters serial = registry.snapshot().counters;
  EXPECT_GT(serial[static_cast<std::size_t>(obs::Counter::FaultsDiagnosed)], 0u)
      << what << " (instrumentation compiled out?)";
  for (std::size_t threads : threadCounts) {
    setGlobalThreadCount(threads);
    registry.reset();
    body();
    const MetricsCounters parallel = registry.snapshot().counters;
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << what << " counter " << obs::counterName(static_cast<obs::Counter>(i)) << " @"
          << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminism, MetricsCountersAreBitIdenticalAcrossThreadCounts) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "instrumentation compiled out";
  const CircuitWorkload& work = s953Workload();
  for (SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const DiagnosisPipeline pipeline(work.topology, configFor(scheme, false));
    expectCountersThreadInvariant(
        kThreadCounts, [&] { pipeline.evaluate(work.responses); }, schemeName(scheme));
  }
}

TEST_F(ParallelDeterminism, SocMetricsCountersAreBitIdenticalAcrossThreadCounts) {
  // Fault simulation's counters (cone cache hits, scratch traffic) included:
  // each core's simulator sees the same faults whichever lane claims it.
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "instrumentation compiled out";
  const WorkloadConfig workload = smallSocWorkload();
  DiagnosisConfig config = configFor(SchemeKind::TwoStep, true);
  config.numPatterns = workload.numPatterns;
  expectCountersThreadInvariant(
      kSocThreadCounts, [&] { evaluateSocDr(unevenSoc(), workload, config); }, "uneven soc");
}

TEST_F(ParallelDeterminism, NoisyMetricsCountersAreBitIdenticalAcrossThreadCounts) {
  // Noise + recovery is the hardest case: retries, inconsistency detection,
  // and injected-event counts must all be scheduling-independent — and so
  // must the report, which the analyzer's per-call scratch feeds from
  // several pool lanes at once.
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "instrumentation compiled out";
  const CircuitWorkload& work = s953Workload();
  NoiseConfig noise;
  noise.flipRate = 0.02;
  RetryPolicy retry;
  retry.sessionBudget = 24;
  const NoisyPipeline pipeline(work.topology, configFor(SchemeKind::TwoStep, false), noise,
                               retry);
  std::vector<NoisyDrReport> reports;
  expectCountersThreadInvariant(
      kThreadCounts, [&] { reports.push_back(pipeline.evaluate(work.responses)); },
      "noisy two-step");
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const NoisyDrReport& serial = reports.front();
    const NoisyDrReport& parallel = reports[i];
    const std::string what = "noisy two-step run " + std::to_string(i);
    EXPECT_EQ(serial.dr, parallel.dr) << what;
    EXPECT_EQ(serial.faults, parallel.faults) << what;
    EXPECT_EQ(serial.sumCandidates, parallel.sumCandidates) << what;
    EXPECT_EQ(serial.sumActual, parallel.sumActual) << what;
    EXPECT_EQ(serial.misdiagnosisRate, parallel.misdiagnosisRate) << what;
    EXPECT_EQ(serial.emptyRate, parallel.emptyRate) << what;
    EXPECT_EQ(serial.meanConfidence, parallel.meanConfidence) << what;
    EXPECT_EQ(serial.totalInconsistencies, parallel.totalInconsistencies) << what;
    EXPECT_EQ(serial.totalRetrySessions, parallel.totalRetrySessions) << what;
    EXPECT_EQ(serial.unresolved, parallel.unresolved) << what;
  }
  EXPECT_EQ(reports.size(), 1 + std::size(kThreadCounts));
}

TEST_F(ParallelDeterminism, DiagnoseStaysSoundUnderConcurrency) {
  // Soundness (candidates ⊇ actual) per fault, diagnosed concurrently via
  // submit() — the per-fault entry point users may drive from their own
  // threads.
  const CircuitWorkload& work = s953Workload();
  const DiagnosisPipeline pipeline(work.topology, configFor(SchemeKind::TwoStep, true));
  setGlobalThreadCount(8);
  std::vector<std::future<bool>> sound;
  sound.reserve(work.responses.size());
  for (const FaultResponse& r : work.responses) {
    sound.push_back(globalPool().submit([&pipeline, &r] {
      const FaultDiagnosis d = pipeline.diagnose(r);
      return r.failingCells.isSubsetOf(d.candidates.cells);
    }));
  }
  for (std::size_t i = 0; i < sound.size(); ++i) {
    EXPECT_TRUE(sound[i].get()) << "fault " << i;
  }
}

}  // namespace
}  // namespace scandiag

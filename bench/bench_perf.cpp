// Performance microbenchmarks (google-benchmark): throughput of the hot
// kernels — bit-parallel logic simulation, cone-restricted fault simulation,
// LFSR stepping, partition generation, and whole-fault diagnosis — plus the
// serial-vs-threaded DR experiment comparison, which is also written to
// results/BENCH_perf.json. The JSON report is opened (and the metrics
// registry reset) at the START of the speedup section, after the adaptive
// google-benchmark iterations, so its counters section is deterministic.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;

namespace {

const Netlist& circuit() {
  static const Netlist nl = generateNamedCircuit("s9234");
  return nl;
}

const CircuitWorkload& workload() {
  static const CircuitWorkload work = prepareWorkload(circuit(), presets::table2Workload());
  return work;
}

void BM_LogicSimEvaluate(benchmark::State& state) {
  const Netlist& nl = circuit();
  const LogicSimulator sim(nl);
  const PatternSet pats = generatePatterns(nl, 64);
  std::vector<SimWord> values(nl.gateCount(), 0);
  for (GateId id = 0; id < nl.gateCount(); ++id)
    if (pats.isSource(id)) values[id] = pats.word(id, 0);
  for (auto _ : state) {
    sim.evaluate(values);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.combGateCount()) * 64);
  state.SetLabel("gate-evaluations x 64 patterns");
}
BENCHMARK(BM_LogicSimEvaluate);

void BM_FaultSimulateOne(benchmark::State& state) {
  const Netlist& nl = circuit();
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const auto faults = FaultList::enumerateCollapsed(nl).sample(64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(faults[i++ % faults.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultSimulateOne);

void BM_FaultSimulateOneReference(benchmark::State& state) {
  // The pre-cache algorithm (fresh cone + full good-value copy per fault);
  // the gap to BM_FaultSimulateOne is the cone-cache + scratch-restore win.
  const Netlist& nl = circuit();
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const auto faults = FaultList::enumerateCollapsed(nl).sample(64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulateReference(faults[i++ % faults.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultSimulateOneReference);

void BM_LfsrStep(benchmark::State& state) {
  Lfsr lfsr(LfsrConfig{16, 0}, 0xACE1);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LfsrStep);

void BM_MisrClock(benchmark::State& state) {
  Misr misr(16, primitiveTapMask(16), 8);
  std::uint64_t x = 0;
  for (auto _ : state) {
    misr.clock(++x);
    benchmark::DoNotOptimize(misr.signature());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MisrClock);

void BM_RandomPartition(benchmark::State& state) {
  const std::size_t chain = static_cast<std::size_t>(state.range(0));
  RandomSelectionPartitioner partitioner(RandomSelectionConfig{}, chain, 16);
  for (auto _ : state) benchmark::DoNotOptimize(partitioner.next());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chain));
}
BENCHMARK(BM_RandomPartition)->Arg(211)->Arg(6173);

void BM_IntervalPartition(benchmark::State& state) {
  const std::size_t chain = static_cast<std::size_t>(state.range(0));
  IntervalPartitioner partitioner(IntervalPartitionerConfig{}, chain, 16);
  for (auto _ : state) benchmark::DoNotOptimize(partitioner.next());
}
BENCHMARK(BM_IntervalPartition)->Arg(211)->Arg(6173);

void BM_DiagnoseFault(benchmark::State& state) {
  const CircuitWorkload& work = workload();
  const DiagnosisPipeline pipeline(work.topology,
                                   presets::table2(SchemeKind::TwoStep, false));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.diagnose(work.responses[i++ % work.responses.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DiagnoseFault);

void BM_DiagnoseFaultWithPruning(benchmark::State& state) {
  const CircuitWorkload& work = workload();
  const DiagnosisPipeline pipeline(work.topology,
                                   presets::table2(SchemeKind::TwoStep, true));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.diagnose(work.responses[i++ % work.responses.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DiagnoseFaultWithPruning);

void BM_FullDrExperiment(benchmark::State& state) {
  const CircuitWorkload& work = workload();
  const DiagnosisPipeline pipeline(work.topology,
                                   presets::table2(SchemeKind::TwoStep, false));
  for (auto _ : state) benchmark::DoNotOptimize(pipeline.evaluate(work.responses));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(work.responses.size()));
}
BENCHMARK(BM_FullDrExperiment);

void BM_FullDrExperimentThreads(benchmark::State& state) {
  // Same experiment through the thread pool; DR output is bit-identical at
  // every arg (the determinism tests hold this), only wall time changes.
  setGlobalThreadCount(static_cast<std::size_t>(state.range(0)));
  const CircuitWorkload& work = workload();
  const DiagnosisPipeline pipeline(work.topology,
                                   presets::table2(SchemeKind::TwoStep, false));
  for (auto _ : state) benchmark::DoNotOptimize(pipeline.evaluate(work.responses));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(work.responses.size()));
  setGlobalThreadCount(1);
}
BENCHMARK(BM_FullDrExperimentThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Serial-vs-threaded speedup on the largest synthetic profile (s38584). Runs
// after the microbenchmarks and records throughput + speedup per thread
// count into results/BENCH_perf.json — the artifact the EXPERIMENTS.md
// threading row is checked against.

double bestEvaluateMillis(const DiagnosisPipeline& pipeline,
                          const std::vector<FaultResponse>& responses, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pipeline.evaluate(responses));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Fixed-size per-fault simulation comparison on the table2-class workload:
/// the cone-cached scratch path (simulate) against the full-copy reference
/// (simulateReference). Runs BEFORE the BenchReport registry reset so its
/// counter increments are out of scope for the CI-gated counters section.
struct FaultSimComparison {
  double scratchMicros = 0.0;
  double referenceMicros = 0.0;
  double speedup = 0.0;
  std::size_t faults = 0;
};

FaultSimComparison measureFaultSimSpeedup() {
  const Netlist& nl = circuit();
  const PatternSet pats = generatePatterns(nl, presets::table2Workload().numPatterns);
  const FaultSimulator sim(nl, pats);
  const auto faults = FaultList::enumerateCollapsed(nl).sample(500, 0xFA17);

  const auto sweepMillis = [&](auto&& simulateOne) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (const FaultSite& f : faults) benchmark::DoNotOptimize(simulateOne(f));
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return best;
  };

  FaultSimComparison cmp;
  cmp.faults = faults.size();
  // Warm-up builds every cone once; steady state (a DR experiment revisits
  // each fault's gate many times) is what the hot path is optimized for.
  sweepMillis([&](const FaultSite& f) { return sim.simulate(f); });
  const double scratchMillis = sweepMillis([&](const FaultSite& f) { return sim.simulate(f); });
  const double referenceMillis =
      sweepMillis([&](const FaultSite& f) { return sim.simulateReference(f); });
  cmp.scratchMicros = 1000.0 * scratchMillis / static_cast<double>(faults.size());
  cmp.referenceMicros = 1000.0 * referenceMillis / static_cast<double>(faults.size());
  cmp.speedup = cmp.scratchMicros > 0.0 ? cmp.referenceMicros / cmp.scratchMicros : 0.0;
  std::printf("\nPer-fault simulation, %s (%zu faults, %zu patterns):\n", nl.name().c_str(),
              faults.size(), pats.numPatterns());
  std::printf("  reference (full-copy): %.2f us/fault\n", cmp.referenceMicros);
  std::printf("  scratch (cone-cached): %.2f us/fault  -> %.2fx\n", cmp.scratchMicros,
              cmp.speedup);
  return cmp;
}

/// Counter-increment cost, single shared atomic vs the registry's striped
/// lanes, hammered from min(8, hardware_concurrency) threads. Must run BEFORE
/// the BenchReport registry reset: the striped side hammers a real counter,
/// and the number of adds depends on the machine's core count — keeping it
/// out of the CI-gated (machine-independent) counters section.
struct ContentionComparison {
  double sharedNsPerAdd = 0.0;
  double stripedNsPerAdd = 0.0;
  double ratio = 0.0;
  std::size_t threads = 0;
};

ContentionComparison measureCounterContention() {
  ContentionComparison cmp;
  cmp.threads = std::max<std::size_t>(1, std::min<std::size_t>(8, std::thread::hardware_concurrency()));
  constexpr std::uint64_t kAddsPerThread = 1'000'000;

  const auto hammer = [&](auto&& addOne) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::thread> threads;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t t = 0; t < cmp.threads; ++t) {
        threads.emplace_back([&] {
          for (std::uint64_t i = 0; i < kAddsPerThread; ++i) addOne();
        });
      }
      for (std::thread& t : threads) t.join();
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count() /
                                static_cast<double>(cmp.threads * kAddsPerThread));
    }
    return best;
  };

  std::atomic<std::uint64_t> shared{0};
  cmp.sharedNsPerAdd = hammer([&] { shared.fetch_add(1, std::memory_order_relaxed); });
  benchmark::DoNotOptimize(shared.load());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  cmp.stripedNsPerAdd = hammer([&] { registry.add(obs::Counter::BatchedGroupScores); });
  cmp.ratio = cmp.stripedNsPerAdd > 0.0 ? cmp.sharedNsPerAdd / cmp.stripedNsPerAdd : 0.0;
  std::printf("\nCounter add contention (%zu threads, %llu adds each):\n", cmp.threads,
              static_cast<unsigned long long>(kAddsPerThread));
  std::printf("  shared atomic:  %.2f ns/add\n", cmp.sharedNsPerAdd);
  std::printf("  striped lanes:  %.2f ns/add  -> %.2fx\n", cmp.stripedNsPerAdd, cmp.ratio);
  return cmp;
}

/// Batched vs per-session scorer over the full s38584 workload, single
/// thread, engine-level (no analyzer) so the ratio isolates session scoring.
/// Runs after the BenchReport reset on purpose: every sweep is fixed-size and
/// single-threaded, so its counter increments are deterministic and belong in
/// the gated section (they are what make batched_group_scores nonzero here).
struct ScorerComparison {
  double referenceMillis = 0.0;
  double batchedMillis = 0.0;
  double referenceSessionsPerSec = 0.0;
  double batchedSessionsPerSec = 0.0;
  double speedup = 0.0;
  std::size_t sessionsPerSweep = 0;
};

ScorerComparison measureScorerSpeedup(
    const DiagnosisPipeline& pipeline, const std::vector<FaultResponse>& responses) {
  const SessionEngine& engine = pipeline.engine();
  const PreparedPartitionSet& prepared = pipeline.prepared();
  const auto sweepMillis = [&](auto&& runOne) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (const FaultResponse& r : responses) benchmark::DoNotOptimize(runOne(r));
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return best;
  };

  ScorerComparison cmp;
  cmp.sessionsPerSweep = responses.size() * prepared.totalGroups();
  SessionBatchScratch scratch;
  // Warm-up both paths once (prepared tables and the signature model are
  // already built; this warms caches).
  sweepMillis([&](const FaultResponse& r) { return engine.runReference(prepared, r); });
  cmp.referenceMillis =
      sweepMillis([&](const FaultResponse& r) { return engine.runReference(prepared, r); });
  sweepMillis([&](const FaultResponse& r) { return engine.run(prepared, r, &scratch); });
  cmp.batchedMillis =
      sweepMillis([&](const FaultResponse& r) { return engine.run(prepared, r, &scratch); });
  cmp.referenceSessionsPerSec =
      1000.0 * static_cast<double>(cmp.sessionsPerSweep) / cmp.referenceMillis;
  cmp.batchedSessionsPerSec =
      1000.0 * static_cast<double>(cmp.sessionsPerSweep) / cmp.batchedMillis;
  cmp.speedup = cmp.batchedMillis > 0.0 ? cmp.referenceMillis / cmp.batchedMillis : 0.0;
  std::printf("\nSession scoring, single thread (%zu faults x %zu sessions):\n",
              responses.size(), prepared.totalGroups());
  std::printf("  per-session reference: %8.2f ms  %12.0f sessions/s\n", cmp.referenceMillis,
              cmp.referenceSessionsPerSec);
  std::printf("  batched scorer:        %8.2f ms  %12.0f sessions/s  -> %.2fx\n",
              cmp.batchedMillis, cmp.batchedSessionsPerSec, cmp.speedup);
  return cmp;
}

void reportParallelSpeedup() {
  // Measured before the report exists: see FaultSimComparison /
  // ContentionComparison.
  const FaultSimComparison faultSim = measureFaultSimSpeedup();
  const ContentionComparison contention = measureCounterContention();

  // Constructed here — the registry reset puts the adaptive-iteration
  // microbenchmark counters out of scope, leaving only the fixed-size
  // speedup experiment (deterministic, CI-gated).
  benchutil::BenchReport report("perf");
  const Netlist nl = generateNamedCircuit("s38584");
  const WorkloadConfig workload = presets::table2Workload();
  const CircuitWorkload work = prepareWorkload(nl, workload);
  const DiagnosisPipeline pipeline(work.topology,
                                   presets::table2(SchemeKind::TwoStep, false));
  report.context("circuit", nl.name());
  report.context("scheme", "two_step");
  report.context("faults", work.responses.size());
  report.context("patterns", workload.numPatterns);

  // Before/after rows for the copy-free fault-sim hot path (timing rows are
  // informational; the counter gate lives in the counters section).
  report.row({{"kind", "fault_sim_reference"},
              {"per_fault_micros", faultSim.referenceMicros},
              {"faults", faultSim.faults}});
  report.row({{"kind", "fault_sim_scratch"},
              {"per_fault_micros", faultSim.scratchMicros},
              {"faults", faultSim.faults},
              {"speedup", faultSim.speedup}});
  report.row({{"kind", "counter_shared_atomic"},
              {"ns_per_add", contention.sharedNsPerAdd},
              {"hammer_threads", contention.threads}});
  report.row({{"kind", "counter_striped"},
              {"ns_per_add", contention.stripedNsPerAdd},
              {"hammer_threads", contention.threads},
              {"speedup", contention.ratio}});

  // Batched vs per-session scorer (the ARCHITECTURE §11 headline number),
  // measured on a sweep-scale schedule (fig5 preset: 16 partitions x 32
  // groups = 512 sessions per fault) — the workload class the batched scorer
  // exists for. The table2 pipeline above keeps driving the DR-scaling rows.
  setGlobalThreadCount(1);
  const DiagnosisPipeline scoringPipeline(
      work.topology, presets::fig5Config(SchemeKind::TwoStep, /*maxPartitions=*/16));
  const ScorerComparison scorer = measureScorerSpeedup(scoringPipeline, work.responses);
  report.row({{"kind", "session_reference"},
              {"millis", scorer.referenceMillis},
              {"sessions_per_second", scorer.referenceSessionsPerSec},
              {"sessions", scorer.sessionsPerSweep}});
  report.row({{"kind", "session_batched"},
              {"millis", scorer.batchedMillis},
              {"sessions_per_second", scorer.batchedSessionsPerSec},
              {"sessions", scorer.sessionsPerSweep},
              {"speedup", scorer.speedup}});
  report.timing("session_scorer_speedup", scorer.speedup);

  std::printf("\nDR experiment scaling, s38584 (%zu detected faults, two-step):\n",
              work.responses.size());
  std::printf("%-8s %-12s %-16s %-8s\n", "threads", "best ms", "faults/s", "speedup");

  double serialMillis = 0.0;
  double speedup8 = 0.0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    setGlobalThreadCount(threads);
    bestEvaluateMillis(pipeline, work.responses, 1);  // warm-up (pool + caches)
    const double millis = bestEvaluateMillis(pipeline, work.responses, 5);
    if (threads == 1) serialMillis = millis;
    const double faultsPerSec = 1000.0 * static_cast<double>(work.responses.size()) / millis;
    const double speedup = serialMillis / millis;
    if (threads == 8) speedup8 = speedup;
    std::printf("%-8zu %-12.2f %-16.0f %-8.2f\n", threads, millis, faultsPerSec, speedup);
    report.row({{"threads", threads},
                {"millis", millis},
                {"faults_per_second", faultsPerSec},
                {"speedup", speedup}});
  }
  setGlobalThreadCount(1);
  // Scaling-gate inputs (timing section: wall-clock, machine-dependent —
  // check_bench_counters.py --min-ratio reads them from the CURRENT report,
  // never from goldens, and its escape hatch keys on hardware_concurrency).
  report.timing("threads_speedup_8", speedup8);
  report.timing("hardware_concurrency",
                static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  reportParallelSpeedup();
  return 0;
}

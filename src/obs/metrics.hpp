// Pipeline observability: a process-wide, thread-safe metrics registry.
//
// Two kinds of measurements, with very different contracts:
//
//  * **Deterministic counters** — monotonic tallies of *work items* (sessions
//    run, partitions evaluated, faults simulated, ...). Every increment is
//    attached to a unit of work whose existence does not depend on
//    scheduling, so counter totals are bit-identical for every thread count
//    (the same contract as the DR outputs; enforced by
//    parallel_determinism_test and the CI bench-regression gate).
//  * **Timings** — scoped phase timers (nanoseconds per pipeline phase) and
//    per-worker thread-pool busy time. Wall-clock measurements are never
//    deterministic; exporters keep them in a separate section that CI
//    explicitly excludes from golden comparison.
//
// Cost model:
//  * `SCANDIAG_METRICS=OFF` CMake build: SCANDIAG_METRICS_ENABLED is 0 and
//    every shim below (count(), PhaseScope, WorkerScope) compiles to nothing
//    — zero instructions on the hot paths. The registry class itself stays
//    available (a few hundred bytes) so exporters and tests still link.
//  * Default build: one relaxed CAS per counter add — into the calling
//    thread's own cache-line-padded counter stripe (kCounterStripes
//    round-robin lanes), so concurrent adds from pool workers neither contend
//    nor false-share — and two steady_clock reads per scope. Counters sit at
//    per-fault / per-partition granularity, never inside bit-level inner
//    loops. PhaseScope/WorkerScope are costlier (the clock reads) and are
//    therefore kept OFF the per-fault bodies of the batch DR loops — they
//    wrap single-fault APIs, per-batch regions, and per-partition retry paths
//    only. That split keeps metrics-on overhead under the 2% budget bench_perf
//    is checked against.
//
// The registry is a header-inline singleton so that low-level code (e.g. the
// thread pool in scandiag_common) can record into it without a link-time
// dependency on the obs library; obs/export.* (JSON snapshot I/O) is the only
// part that needs linking against scandiag_obs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#ifndef SCANDIAG_METRICS_ENABLED
#define SCANDIAG_METRICS_ENABLED 1
#endif

namespace scandiag::obs {

/// True when the instrumentation shims compile to real code.
inline constexpr bool kMetricsCompiled = SCANDIAG_METRICS_ENABLED != 0;

// ---------------------------------------------------------------------------
// Taxonomy. Counter values are deterministic across thread counts; phases and
// worker stats are wall-clock.

enum class Counter : unsigned {
  SessionsRun = 0,          // BIST sessions emulated (one per group per partition)
  PartitionsEvaluated,      // partition verdict rows computed
  PartitionsGenerated,      // partitions produced by any partitioner
  FaultsSimulated,          // single-fault cone simulations (FaultSimulator)
  FaultsGraded,             // retired slot, always 0 (kept: journals store indices)
  FaultsDiagnosed,          // full diagnose() invocations (clean + noisy)
  SignatureWordsHashed,     // 64-bit error-stream words folded into signatures
  RetrySessionsSpent,       // extra sessions charged to the recovery budget
  InconsistenciesDetected,  // impossible verdict patterns flagged by recovery
  NoiseEventsInjected,      // verdict corruptions applied by the injector
  ConeCacheHits,            // cone-path simulate() calls served by the cone cache
  ScratchGatesTouched,      // gate slots saved+restored by the scratch faulty sim
  JournalRecordsWritten,    // checkpoint records appended by this process
  JournalRecordsReplayed,   // checkpoint records replayed from a prior run
  WatchdogCancels,          // watchdog deadline trips (cancellation requested)
  BatchedGroupScores,       // group verdicts produced by the batched scorer
  BatchContribCells,        // batched scoreboard updates: cell × partition XORs,
                            // position × partition ORs (exact verdicts)
  ServeRequestsOk,          // serve: diagnosis requests answered Ok
  ServeRequestsShed,        // serve: connections shed BUSY at admission
  ServeDeadlineDegraded,    // serve: requests degraded to a partial DEADLINE reply
  ServeFramesRejected,      // serve: malformed/corrupt protocol frames rejected
  CoreClassHits,            // SOC core instances served by an existing class
  CoreClassMisses,          // SOC core isomorphism classes built from scratch
  AdaptiveSessionsSaved,    // budgeted sessions the adaptive planner left unspent
  AdaptiveCandidatesPruned, // candidate positions eliminated by adaptive steps
  DefectScenariosRun,       // defect-zoo scenarios diagnosed (k-fault unions)
  UnionSplits,              // interval splits spent resolving union candidates
  AtpgPatternsGenerated,    // PODEM distinguishing patterns applied to a stall
  DegradedSupersets,        // diagnoses that fell back to a superset-only answer
  kCount,
};

enum class Phase : unsigned {
  GoodMachineSim = 0,     // fault-free simulation of the pattern set
  FaultySim,              // faulty-machine simulation (single + batch)
  PartitionGen,           // partition/interval-seed generation
  SignatureCompare,       // session verdicts + signature hashing
  CandidateIntersection,  // inclusion-exclusion + pruning
  Recovery,               // inconsistency analysis + retry + degradation
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Worker lanes beyond this many share no utilization slot (counters are
/// unaffected; only the per-worker busy-time breakdown truncates).
inline constexpr std::size_t kMaxTrackedWorkers = 128;

constexpr const char* counterName(Counter c) {
  switch (c) {
    case Counter::SessionsRun: return "sessions_run";
    case Counter::PartitionsEvaluated: return "partitions_evaluated";
    case Counter::PartitionsGenerated: return "partitions_generated";
    case Counter::FaultsSimulated: return "faults_simulated";
    case Counter::FaultsGraded: return "faults_graded";
    case Counter::FaultsDiagnosed: return "faults_diagnosed";
    case Counter::SignatureWordsHashed: return "signature_words_hashed";
    case Counter::RetrySessionsSpent: return "retry_sessions_spent";
    case Counter::InconsistenciesDetected: return "inconsistencies_detected";
    case Counter::NoiseEventsInjected: return "noise_events_injected";
    case Counter::ConeCacheHits: return "cone_cache_hits";
    case Counter::ScratchGatesTouched: return "scratch_gates_touched";
    case Counter::JournalRecordsWritten: return "journal_records_written";
    case Counter::JournalRecordsReplayed: return "journal_records_replayed";
    case Counter::WatchdogCancels: return "watchdog_cancels";
    case Counter::BatchedGroupScores: return "batched_group_scores";
    case Counter::BatchContribCells: return "batch_contrib_cells";
    case Counter::ServeRequestsOk: return "serve_requests_ok";
    case Counter::ServeRequestsShed: return "serve_requests_shed";
    case Counter::ServeDeadlineDegraded: return "serve_deadline_degraded";
    case Counter::ServeFramesRejected: return "serve_frames_rejected";
    case Counter::CoreClassHits: return "core_class_hits";
    case Counter::CoreClassMisses: return "core_class_misses";
    case Counter::AdaptiveSessionsSaved: return "adaptive_sessions_saved";
    case Counter::AdaptiveCandidatesPruned: return "adaptive_candidates_pruned";
    case Counter::DefectScenariosRun: return "defect_scenarios_run";
    case Counter::UnionSplits: return "union_splits";
    case Counter::AtpgPatternsGenerated: return "atpg_patterns_generated";
    case Counter::DegradedSupersets: return "degraded_supersets";
    case Counter::kCount: break;
  }
  return "unknown_counter";
}

constexpr const char* phaseName(Phase p) {
  switch (p) {
    case Phase::GoodMachineSim: return "good_machine_sim";
    case Phase::FaultySim: return "faulty_sim";
    case Phase::PartitionGen: return "partition_gen";
    case Phase::SignatureCompare: return "signature_compare";
    case Phase::CandidateIntersection: return "candidate_intersection";
    case Phase::Recovery: return "recovery";
    case Phase::kCount: break;
  }
  return "unknown_phase";
}

// ---------------------------------------------------------------------------
// Snapshot: a plain-value copy of the registry, safe to compare/serialize.

struct PhaseStat {
  std::uint64_t nanos = 0;
  std::uint64_t calls = 0;
  bool operator==(const PhaseStat&) const = default;
};

struct WorkerStat {
  std::size_t worker = 0;  // lane index: 0 = calling thread, 1..N = pool workers
  std::uint64_t busyNanos = 0;
  std::uint64_t tasks = 0;
  bool operator==(const WorkerStat&) const = default;
};

struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<PhaseStat, kNumPhases> phases{};
  /// Only lanes that recorded any activity, ascending by lane index.
  std::vector<WorkerStat> workers;
  bool operator==(const MetricsSnapshot&) const = default;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const PhaseStat& phase(Phase p) const { return phases[static_cast<std::size_t>(p)]; }
};

// ---------------------------------------------------------------------------
// Registry.

/// Counter stripes: each stripe is a cache-line-aligned block of counter
/// cells, and every thread is pinned (round-robin at first use) to one
/// stripe. Two threads therefore never contend on — or false-share — a
/// counter cache line unless more than kCounterStripes threads are live, and
/// totals stay exact: each increment lands in exactly one stripe, snapshot()
/// sums the stripes, so the aggregate is the same deterministic tally the
/// single-array design produced (the bit-identical-across-thread-counts
/// contract is unchanged).
inline constexpr std::size_t kCounterStripes = 16;

class MetricsRegistry {
 public:
  /// Process-wide instance.
  static MetricsRegistry& instance() {
    static MetricsRegistry registry;
    return registry;
  }

  /// Saturating add: the counter sticks at UINT64_MAX instead of wrapping, so
  /// a long-running service degrades to "at least this many" rather than
  /// resetting to a small lie. Exact (never loses increments) below the cap.
  /// Lands in the calling thread's stripe — uncontended in the steady state.
  void add(Counter c, std::uint64_t n = 1) {
    saturatingAdd(stripes_[threadStripe()].cells[static_cast<std::size_t>(c)], n);
  }

  void addPhase(Phase p, std::uint64_t nanos) {
    const std::size_t i = static_cast<std::size_t>(p);
    saturatingAdd(phaseNanos_[i], nanos);
    saturatingAdd(phaseCalls_[i], 1);
  }

  void recordWorker(std::size_t lane, std::uint64_t busyNanos) {
    if (lane >= kMaxTrackedWorkers) return;
    saturatingAdd(workers_[lane].busy, busyNanos);
    saturatingAdd(workers_[lane].tasks, 1);
  }

  /// Zeroes every counter/timer. Not linearizable against concurrent adds —
  /// call it only while no instrumented work is in flight (bench setup, test
  /// fixtures), same rule as setGlobalThreadCount().
  void reset() {
    for (auto& stripe : stripes_)
      for (auto& c : stripe.cells) c.store(0, std::memory_order_relaxed);
    for (auto& p : phaseNanos_) p.store(0, std::memory_order_relaxed);
    for (auto& p : phaseCalls_) p.store(0, std::memory_order_relaxed);
    for (auto& w : workers_) {
      w.busy.store(0, std::memory_order_relaxed);
      w.tasks.store(0, std::memory_order_relaxed);
    }
  }

  /// Plain-value copy. Exact when no instrumented work is in flight. Counter
  /// totals are the saturating sum over the stripes.
  MetricsSnapshot snapshot() const {
    MetricsSnapshot snap;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      std::uint64_t total = 0;
      for (const CounterStripe& stripe : stripes_) {
        const std::uint64_t part = stripe.cells[i].load(std::memory_order_relaxed);
        total = part > UINT64_MAX - total ? UINT64_MAX : total + part;
      }
      snap.counters[i] = total;
    }
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      snap.phases[i].nanos = phaseNanos_[i].load(std::memory_order_relaxed);
      snap.phases[i].calls = phaseCalls_[i].load(std::memory_order_relaxed);
    }
    for (std::size_t lane = 0; lane < kMaxTrackedWorkers; ++lane) {
      const std::uint64_t tasks = workers_[lane].tasks.load(std::memory_order_relaxed);
      if (tasks == 0) continue;
      snap.workers.push_back(
          WorkerStat{lane, workers_[lane].busy.load(std::memory_order_relaxed), tasks});
    }
    return snap;
  }

 private:
  MetricsRegistry() = default;

  static void saturatingAdd(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    for (;;) {
      std::uint64_t next = cur + n;
      if (next < cur) next = UINT64_MAX;  // overflow: clamp, don't wrap
      if (cell.compare_exchange_weak(cur, next, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// One block of counter cells, padded out to its own cache line(s) so
  /// stripes never share a line with each other.
  struct alignas(64) CounterStripe {
    std::array<std::atomic<std::uint64_t>, kNumCounters> cells{};
  };

  /// Per-worker utilization slot, one cache line each: pool workers record
  /// into their own lane concurrently, so adjacent lanes must not share.
  struct alignas(64) WorkerLane {
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> tasks{0};
  };

  /// Stripe of the calling thread, assigned round-robin on first use. The
  /// assignment is scheduling-dependent, but only *placement* varies — every
  /// increment still lands exactly once, so summed totals stay deterministic.
  static std::size_t threadStripe() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
    return stripe;
  }

  std::array<CounterStripe, kCounterStripes> stripes_{};
  // Phase timers are low-frequency (per-batch / single-fault API scopes
  // only), so a shared array is fine; worker lanes are padded above.
  std::array<std::atomic<std::uint64_t>, kNumPhases> phaseNanos_{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> phaseCalls_{};
  std::array<WorkerLane, kMaxTrackedWorkers> workers_{};
};

// ---------------------------------------------------------------------------
// Instrumentation shims. These — not the registry methods — are what the hot
// paths call, so a SCANDIAG_METRICS=OFF build erases the instrumentation
// entirely while the registry/exporter API keeps compiling.

#if SCANDIAG_METRICS_ENABLED

namespace detail {
/// Per-thread capture sink for DeltaCapture (below). Naked pointer, not an
/// object, so the common no-capture path costs one thread-local load.
inline thread_local std::array<std::uint64_t, kNumCounters>* tlsDeltaSink = nullptr;
}  // namespace detail

inline void count(Counter c, std::uint64_t n = 1) {
  MetricsRegistry::instance().add(c, n);
  if (detail::tlsDeltaSink) (*detail::tlsDeltaSink)[static_cast<std::size_t>(c)] += n;
}

/// Captures the counter increments made by the current thread while in scope.
/// The checkpoint layer wraps each single-fault diagnose in one of these and
/// journals the nonzero deltas, so a resumed run can replay a fault's exact
/// counter contribution and keep totals bit-identical to an uninterrupted
/// run. Captures nest (the inner scope shadows, then merges into the outer).
class DeltaCapture {
 public:
  DeltaCapture() : outer_(detail::tlsDeltaSink) { detail::tlsDeltaSink = &deltas_; }
  ~DeltaCapture() {
    detail::tlsDeltaSink = outer_;
    if (outer_) {
      for (std::size_t i = 0; i < kNumCounters; ++i) (*outer_)[i] += deltas_[i];
    }
  }
  DeltaCapture(const DeltaCapture&) = delete;
  DeltaCapture& operator=(const DeltaCapture&) = delete;

  /// Increments recorded so far, indexed by Counter.
  const std::array<std::uint64_t, kNumCounters>& deltas() const { return deltas_; }

 private:
  std::array<std::uint64_t, kNumCounters> deltas_{};
  std::array<std::uint64_t, kNumCounters>* outer_;
};

/// RAII phase timer: accumulates the scope's wall time into one Phase.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricsRegistry::instance().addPhase(
        phase_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII busy-time tracker for one thread-pool lane (0 = calling thread).
class WorkerScope {
 public:
  explicit WorkerScope(std::size_t lane)
      : lane_(lane), start_(std::chrono::steady_clock::now()) {}
  ~WorkerScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricsRegistry::instance().recordWorker(
        lane_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  std::size_t lane_;
  std::chrono::steady_clock::time_point start_;
};

#else  // SCANDIAG_METRICS_ENABLED == 0: instrumentation compiles to nothing.

inline void count(Counter, std::uint64_t = 1) {}

class DeltaCapture {
 public:
  DeltaCapture() = default;
  DeltaCapture(const DeltaCapture&) = delete;
  DeltaCapture& operator=(const DeltaCapture&) = delete;
  const std::array<std::uint64_t, kNumCounters>& deltas() const { return deltas_; }

 private:
  std::array<std::uint64_t, kNumCounters> deltas_{};
};

class PhaseScope {
 public:
  explicit PhaseScope(Phase) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
};

class WorkerScope {
 public:
  explicit WorkerScope(std::size_t) {}
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;
};

#endif  // SCANDIAG_METRICS_ENABLED

}  // namespace scandiag::obs

// Shared plumbing for the repository benchmark: options, seeded input
// selection, the recorded-expected-output store, the in-memory span tracer
// and the per-run report that becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-scale run: one setup, one shard, short serve phases.
  bool smoke = false;
  /// Recompute every shard of the workload's pool and rewrite its expected file.
  bool record = false;
  /// Self-check: corrupt the first recorded candidate count the run compares.
  bool perturb = false;
  /// Fixed library pool size (capped at the hardware thread count).
  std::size_t threads = 4;
  std::string expectedDir;
  std::string runDir;
  std::string traceDir;
  std::string scandiagBin;
};

/// SplitMix64 finalizer: derives independent seeds from (seed, salt).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// The order in which a run visits the `poolSize` recorded shards of a
/// workload: a Fisher-Yates shuffle keyed by the run's --seed.
std::vector<std::size_t> shardOrder(std::size_t poolSize, std::uint64_t seed);

double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// VmHWM of a process (`pid` 0 = this process) in MiB.
double peakRssMb(int pid = 0);

/// FNV-1a fold used for candidate-set and verdict fingerprints.
std::uint64_t fnvFold(std::uint64_t digest, std::uint64_t value);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Recorded expected outputs of one workload (repobench/expected/<name>.json).
/// Each shard is a JSON object of named unsigned integers or strings.
class ExpectedStore {
 public:
  ExpectedStore(const Options& options, const std::string& workload);

  std::size_t poolSize() const { return shards_.size(); }
  const scandiag::JsonValue& shard(std::size_t index) const;
  /// Record mode: appends one shard and writes the file on save().
  void add(scandiag::JsonValue shard) { recorded_.push_back(std::move(shard)); }
  void save(const std::string& poolInfo) const;

 private:
  std::string path_;
  std::vector<scandiag::JsonValue> shards_;
  std::vector<scandiag::JsonValue> recorded_;
};

/// Builds a JSON object for ExpectedStore::add from (name, value) pairs.
scandiag::JsonValue makeRecord(const std::vector<std::pair<std::string, std::uint64_t>>& fields);

/// In-memory span recorder for traced runs. Traced passes run on one thread
/// with the library pool at one thread, so a plain stack tracks parents.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;
    std::uint64_t item = 0;
  };

  std::size_t begin(const std::string& name, std::uint64_t item);
  /// Closes span `index` and returns its duration in seconds.
  double end(std::size_t index);

  /// Marks the start of a traced pass; spans recorded from here on are the
  /// pass's spans.
  void startPass();
  /// Sum of self time (duration minus child spans) per span name, this pass.
  std::map<std::string, double> selfSeconds() const;
  /// Sum of the durations of the pass's top-level spans.
  double topLevelSeconds() const;
  void writeJsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::size_t passStart_ = 0;
};

/// RAII span; `seconds()` is valid after close() or destruction.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, std::uint64_t item = 0);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double close();

 private:
  Tracer* tracer_;
  std::size_t index_ = 0;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Counter deltas between two registry snapshots, by counter name.
std::map<std::string, std::uint64_t> counterDelta(const scandiag::obs::MetricsSnapshot& before,
                                                  const scandiag::obs::MetricsSnapshot& after);

/// Busy seconds the library pool's workers logged between two snapshots.
double poolBusySeconds(const scandiag::obs::MetricsSnapshot& before,
                       const scandiag::obs::MetricsSnapshot& after);

class Report;

/// Compares the recorded obs.<counter> fields of `expected` with `counters`.
/// Counters the registry no longer has are skipped; counters added since the
/// recording are not compared.
bool checkCounters(Report& report, const scandiag::JsonValue& expected,
                   const std::map<std::string, std::uint64_t>& counters, const std::string& where);

/// Everything one workload run reports.
class Report {
 public:
  explicit Report(const Options& options) : options_(&options) {}

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);

  /// Operations attempted / failed (threw, non-Ok reply, or outputs that
  /// differ from the recorded expectation).
  void attempted(std::size_t n) { attempted_ += n; }
  void failed(std::size_t n, const std::string& why);
  /// Graded diagnoses: checked against ground truth, and those missing a
  /// true failing cell. Only a fixed set of diagnoses, the same for every
  /// seed, is graded, so the figures never depend on how much work fit into
  /// the run.
  void diagnoses(std::size_t checked, std::size_t wrong) {
    checked_ += checked;
    wrong_ += wrong;
  }
  /// Candidate and actual failing-cell sums of graded diagnoses (for `dr`).
  void resolution(std::uint64_t candidates, std::uint64_t actual) {
    sumCandidates_ += candidates;
    sumActual_ += actual;
  }
  /// Sets `dr` and `sound_share` from the graded diagnoses.
  void emitQuality();
  /// A condition that invalidates the run without being an operation failure.
  void invalid(const std::string& why);

  /// Compares one simulated statistic with its recorded value. In self-check
  /// mode the run's first comparison of a candidate count (a `what` ending
  /// in ".candidates") is made against a corrupted expectation.
  bool expectEqual(const std::string& what, std::uint64_t got, std::uint64_t expected);
  bool expectEqual(const scandiag::JsonValue& expected, const std::string& key,
                   std::uint64_t got, const std::string& where);

  std::size_t attemptedCount() const { return attempted_; }
  std::size_t failedCount() const { return failed_; }
  std::size_t wrongCount() const { return wrong_; }
  std::size_t checkedCount() const { return checked_; }
  bool valid() const { return invalidReasons_.empty(); }

  /// The driver's JSON result line (run.py reduces it to the final one).
  std::string json(bool correct) const;

 private:
  const Options* options_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> invalidReasons_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checked_ = 0;
  std::size_t wrong_ = 0;
  std::uint64_t sumCandidates_ = 0;
  std::uint64_t sumActual_ = 0;
  std::size_t mismatchesLogged_ = 0;
  bool perturbed_ = false;
};

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 9;

/// A run is a sequence of rounds, each doing one unit of every timed
/// activity, so every metric samples the whole run; a shared host's slow
/// spells then touch all metrics alike, and the median over rounds is what a
/// run reports. Rounds repeat until --seconds have passed.
class Rounds {
 public:
  /// At least `minimum` rounds; exactly `minimum` in smoke runs.
  Rounds(const Options& options, std::size_t minimum);
  bool more() const;
  void finished() { ++done_; }
  std::size_t count() const { return done_; }

 private:
  const Options* options_;
  std::size_t minimum_;
  std::size_t done_ = 0;
  Clock::time_point start_ = Clock::now();
};

/// Timed work of a batch workload (soc_sweep, resilience): per batch or per
/// round, its operations (diagnosed faults or scenarios) and its seconds.
struct BatchFigures {
  std::vector<double> operations;
  std::vector<double> seconds;

  void add(std::size_t ops, double secs) {
    operations.push_back(static_cast<double>(ops));
    seconds.push_back(secs);
  }
};

/// A batch workload's p50_ms and p90_ms (turnaround of the batches in
/// `batches`) and saturation_rps (operations per second of each round in
/// `rounds`, median), printed with the sample counts.
void reportBatches(Report& report, const BatchFigures& batches, const BatchFigures& rounds,
                   const std::string& what);

/// The per-layer metric set every traced run prints; a workload overwrites
/// the entries for the layers it exercises and leaves the rest at zero.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  double get(const std::string& name) const;
  /// Copies every obs counter delta in as obs.<counter>.
  void setCounters(const std::map<std::string, std::uint64_t>& counters);
  /// trace.*: the traced pass's wall time, the untraced wall time of the same
  /// work at the same thread count, work the pass added only to reach a
  /// layer, and the sum of the pass's top-level spans.
  void setTrace(double wall, double untraced, double duplicate, double topLevel);
  /// check.*: the run's failed and wrong shares so far.
  void setChecks(const Report& report);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, std::string>> order_;  // (name, unit)
  std::map<std::string, double> values_;
};

int runSocSweep(const Options& options, Report& report);
int runResilience(const Options& options, Report& report);
int runServe(const Options& options, Report& report);

}  // namespace repobench

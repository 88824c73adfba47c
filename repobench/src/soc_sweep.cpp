// soc_sweep: the paper's Tables 3-4 protocol on SOC-1 and d695 through
// evaluateSocDr. The timed sweeps run without a journal; the graded shards
// are swept again, untimed, with every fault journaled through a fsync'd
// SweepCheckpoint, whose records are checked fault by fault.
//
// A shard is one fault seed: per failing core, kFaultsPerCore detected faults
// are simulated with that core's BIST patterns and diagnosed by two-step with
// pruning on the SOC's meta scan topology (SOC-1: one 6,173-cell chain,
// 8 x 32; d695: eight chains, 8 x 8). The run's seed orders the recorded
// shard pool; a round sweeps one shard.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "bist/prpg.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment_config.hpp"
#include "diagnosis/checkpoint.hpp"
#include "harness.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"
#include "soc/soc_builder.hpp"
#include "soc/soc_experiment_driver.hpp"

namespace repobench {
namespace {

using namespace scandiag;

constexpr std::size_t kPool = 48;
constexpr std::size_t kFaultsPerCore = 400;
constexpr std::uint64_t kSeedBase = 0x50C5EE9;
constexpr std::size_t kGradedShards = 4;

struct SocCase {
  std::string label;
  std::unique_ptr<Soc> soc;
  DiagnosisConfig config;
  /// Pipeline on the SOC's meta topology that grades the graded shards, one
  /// fault at a time, against ground truth.
  std::unique_ptr<DiagnosisPipeline> pipeline;
};

std::vector<SocCase> buildSocs() {
  std::vector<SocCase> socs;
  socs.push_back({"soc1", std::make_unique<Soc>(buildSoc1()),
                  presets::soc1Config(SchemeKind::TwoStep, /*pruning=*/true), nullptr});
  socs.push_back({"d695", std::make_unique<Soc>(buildD695()),
                  presets::d695Config(SchemeKind::TwoStep, /*pruning=*/true), nullptr});
  for (SocCase& c : socs) c.pipeline = std::make_unique<DiagnosisPipeline>(c.soc->topology(), c.config);
  return socs;
}

WorkloadConfig shardWorkload(std::size_t shard) {
  WorkloadConfig wl = presets::socWorkload();
  wl.numFaults = kFaultsPerCore;
  wl.faultSeed = mixSeed(kSeedBase, shard);
  return wl;
}

bool containsActual(const CandidateSet& candidates, const FaultResponse& response) {
  for (std::size_t cell : response.failingCellOrdinals) {
    if (!candidates.cells.test(cell)) return false;
  }
  return true;
}

/// FaultRecordSink that times each journal append as a common.journal span.
class TimingSink : public FaultRecordSink {
 public:
  TimingSink(SweepCheckpoint* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  const FaultRecord* find(std::uint64_t sweepId, std::uint32_t faultIndex) const override {
    return inner_->find(sweepId, faultIndex);
  }
  void record(const FaultRecord& record) override {
    Span span(tracer_, "common.journal", record.faultIndex);
    inner_->record(record);
    ++records_;
  }
  std::size_t records() const { return records_; }

 private:
  SweepCheckpoint* inner_;
  Tracer* tracer_;
  std::size_t records_ = 0;
};

class SocSweep {
 public:
  SocSweep(const Options& options, Report& report)
      : options_(options), report_(report), expected_(options, "soc_sweep") {}

  int run();

 private:
  struct ShardResult {
    double seconds = 0.0;
    std::size_t faults = 0;
    std::size_t coreScenarios = 0;
    std::uint64_t sumCandidates = 0;
    std::uint64_t sumActual = 0;
    std::vector<std::pair<std::string, std::uint64_t>> fields;
    std::map<std::string, std::uint64_t> counters;
  };
  struct Grade {
    std::size_t faults = 0;
    std::size_t wrong = 0;
    std::uint64_t sumCandidates = 0;
    std::uint64_t sumActual = 0;
  };

  std::string journalPath() {
    return options_.runDir + "/soc-" + std::to_string(::getpid()) + "-" +
           std::to_string(journals_++) + ".sdjl";
  }
  std::uint64_t shardDigest(std::size_t shard) const {
    return setupDigestPiece("repobench.soc_sweep.shard", shard, 0);
  }
  /// evaluateSocDr over both SOCs; the timed unit. `journaled` sweeps with a
  /// fresh SweepCheckpoint and adds a per-core digest of its records.
  ShardResult runShard(std::size_t shard, bool journaled);
  /// Compares a shard's outputs with the recorded ones; false on mismatch.
  bool checkShard(std::size_t shard, const ShardResult& result);
  /// Every fault of the shard simulated and diagnosed one at a time, each
  /// diagnosis checked against the fault's true failing cells.
  Grade gradeShard(std::size_t shard);
  void traced(std::size_t shard);
  int record();

  const Options& options_;
  Report& report_;
  ExpectedStore expected_;
  std::vector<SocCase> socs_;
  std::size_t journals_ = 0;
};

SocSweep::ShardResult SocSweep::runShard(std::size_t shard, bool journaled) {
  ShardResult result;
  const WorkloadConfig wl = shardWorkload(shard);
  const std::string path = journaled ? journalPath() : std::string();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  const auto t0 = Clock::now();
  std::vector<std::vector<SocDrRow>> rows;
  {
    std::unique_ptr<SweepCheckpoint> checkpoint;
    if (journaled) {
      checkpoint = std::make_unique<SweepCheckpoint>(path, shardDigest(shard),
                                                     "repobench soc_sweep", false);
    }
    for (const SocCase& c : socs_) {
      rows.push_back(evaluateSocDr(*c.soc, wl, c.config, {}, checkpoint.get()));
    }
  }
  result.seconds = secondsBetween(t0, Clock::now());
  result.counters = counterDelta(before, obs::MetricsRegistry::instance().snapshot());
  if (!journaled) result.counters.erase("journal_records_written");

  // Per-core fingerprint of every journaled fault: counts plus the verdict
  // digest the checkpoint layer records.
  std::unique_ptr<SweepCheckpoint> replay;
  if (journaled) {
    replay = std::make_unique<SweepCheckpoint>(path, shardDigest(shard), "repobench soc_sweep", true);
  }
  for (std::size_t s = 0; s < socs_.size(); ++s) {
    for (std::size_t k = 0; k < rows[s].size(); ++k) {
      const DrReport& r = rows[s][k].report;
      const std::string key = socs_[s].label + "." + std::to_string(k);
      result.fields.push_back({key + ".faults", r.faults});
      result.fields.push_back({key + ".candidates", r.sumCandidates});
      result.fields.push_back({key + ".actual", r.sumActual});
      if (replay) {
        const std::uint64_t sweepId = socSweepIdFor(socs_[s].config, k);
        std::uint64_t digest = kFnvBasis;
        for (std::size_t i = 0; i < r.faults; ++i) {
          const FaultRecord* rec = replay->find(sweepId, static_cast<std::uint32_t>(i));
          if (rec == nullptr) {
            digest = fnvFold(digest, ~0ULL);
            continue;
          }
          digest = fnvFold(digest, rec->candidateCount);
          digest = fnvFold(digest, rec->actualCount);
          digest = fnvFold(digest, rec->verdictDigest);
        }
        result.fields.push_back({key + ".digest", digest});
      }
      result.faults += r.faults;
      result.sumCandidates += r.sumCandidates;
      result.sumActual += r.sumActual;
      ++result.coreScenarios;
    }
  }
  if (journaled) std::filesystem::remove(path);
  return result;
}

bool SocSweep::checkShard(std::size_t shard, const ShardResult& result) {
  const scandiag::JsonValue& expected = expected_.shard(shard);
  if (expected.at("shard").asUint() != shard) {
    throw std::runtime_error("soc_sweep expected store out of order");
  }
  const std::string where = "soc_sweep.shard" + std::to_string(shard);
  bool ok = true;
  for (const auto& [key, value] : result.fields) {
    ok = report_.expectEqual(expected, key, value, where) && ok;
  }
  return checkCounters(report_, expected, result.counters, where) && ok;
}

SocSweep::Grade SocSweep::gradeShard(std::size_t shard) {
  const WorkloadConfig wl = shardWorkload(shard);
  Grade grade;
  for (const SocCase& c : socs_) {
    for (std::size_t k = 0; k < c.soc->coreCount(); ++k) {
      for (const FaultResponse& r : socResponsesForFailingCore(*c.soc, k, wl)) {
        const CandidateSet candidates = c.pipeline->diagnose(r).candidates;
        if (!containsActual(candidates, r)) ++grade.wrong;
        grade.sumCandidates += candidates.cellCount();
        grade.sumActual += r.failingCellCount();
        ++grade.faults;
      }
    }
  }
  return grade;
}

int SocSweep::run() {
  if (options_.record) return record();
  if (expected_.poolSize() != kPool) throw std::runtime_error("soc_sweep pool size changed");

  // Setup: both SOCs built (netlists generated and levelized, meta chains
  // stitched) and their pipelines prepared. Built several times; the median
  // is the setup time.
  std::vector<double> setups;
  const std::size_t reps = options_.smoke ? 1 : kSetups;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    socs_ = buildSocs();
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  const std::vector<std::size_t> order = shardOrder(kPool, options_.seed);
  if (options_.trace) {
    traced(order[0]);
    return 0;
  }

  // The graded shards are the same for every seed, so dr and sound_share
  // compare across runs; the seed orders the rest of the pool.
  const std::size_t graded = options_.smoke ? 1 : kGradedShards;
  std::vector<std::size_t> sequence;
  for (std::size_t s = 0; s < graded; ++s) sequence.push_back(s);
  for (std::size_t s : order) {
    if (s >= graded) sequence.push_back(s);
  }

  std::vector<double> faultRates, rowRates;
  BatchFigures batches;
  Rounds rounds(options_, graded);
  for (; rounds.more(); rounds.finished()) {
    const std::size_t shard = sequence[rounds.count() % sequence.size()];
    const ShardResult result = runShard(shard, /*journaled=*/false);
    report_.attempted(result.faults);
    if (!checkShard(shard, result)) {
      report_.failed(result.faults, "soc_sweep shard " + std::to_string(shard) +
                                        " differs from its recorded outputs");
    }
    if (rounds.count() < graded) {
      // Untimed: the shard swept again with every fault journaled, and its
      // records checked against the recorded digests.
      const ShardResult journaled = runShard(shard, /*journaled=*/true);
      report_.attempted(journaled.faults);
      if (!checkShard(shard, journaled)) {
        report_.failed(journaled.faults, "journaled soc_sweep shard " + std::to_string(shard) +
                                             " differs from its recorded outputs");
      }
      // Untimed: the same faults diagnosed one at a time and checked against
      // ground truth. Equal sums tie these diagnoses to the sweep's.
      const Grade grade = gradeShard(shard);
      const std::string where = "soc_sweep.shard" + std::to_string(shard);
      bool same = report_.expectEqual(where + ".graded_faults", grade.faults, result.faults);
      same = report_.expectEqual(where + ".graded_candidates", grade.sumCandidates,
                                 result.sumCandidates) && same;
      same = report_.expectEqual(where + ".graded_actual", grade.sumActual, result.sumActual) &&
             same;
      same = report_.expectEqual(expected_.shard(shard), "wrong", grade.wrong, where) && same;
      if (!same) {
        report_.failed(result.faults,
                       "graded diagnoses of shard " + std::to_string(shard) + " differ");
      }
      report_.diagnoses(grade.faults, grade.wrong);
      report_.resolution(result.sumCandidates, result.sumActual);
    }
    faultRates.push_back(static_cast<double>(result.faults) / result.seconds);
    rowRates.push_back(static_cast<double>(result.coreScenarios) / result.seconds);
    batches.add(result.faults, result.seconds);
  }

  report_.metric("setup_s", median(setups), "s");
  report_.metric("faults_per_s", median(faultRates), "faults/s");
  report_.metric("scenarios_per_s", median(rowRates), "scenarios/s");
  reportBatches(report_, batches, batches, "soc_sweep shards");
  report_.emitQuality();
  report_.metric("peak_rss_mb", peakRssMb(), "MiB");
  char line[200];
  std::snprintf(line, sizeof(line), "soc_sweep: %zu rounds of one shard (%zu graded)",
                rounds.count(), graded);
  report_.note(line);
  return 0;
}

void SocSweep::traced(std::size_t shard) {
  LayerMetrics layers;
  Tracer tracer;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();

  // Setup layers, one public call at a time: every distinct core netlist
  // generated and levelized, then the SOC builders (which generate their
  // netlists again internally).
  std::set<std::string> modules;
  for (const SocCase& c : socs_) {
    for (const CoreInstance& core : c.soc->cores()) modules.insert(core.netlist->name());
  }
  for (const std::string& name : modules) {
    Span gen(&tracer, "netlist.generate");
    const Netlist nl = generateNamedCircuit(name);
    layers.add("netlist.generate_s", gen.close());
    Span lev(&tracer, "netlist.levelize");
    const Levelization order = levelize(nl);
    layers.add("netlist.levelize_s", lev.close());
  }
  {
    Span build(&tracer, "soc.build");
    socs_ = buildSocs();
    layers.add("soc.build_s", build.close());
  }

  // (a) The composite path at the benchmark's pool size: counters and pool
  // utilisation.
  const obs::MetricsSnapshot before = registry.snapshot();
  const ShardResult composite = runShard(shard, /*journaled=*/false);
  const obs::MetricsSnapshot after = registry.snapshot();
  report_.attempted(composite.faults);
  if (!checkShard(shard, composite)) report_.failed(composite.faults, "traced composite shard differs");
  const std::map<std::string, std::uint64_t> counters = counterDelta(before, after);
  layers.setCounters(counters);
  const double busy = poolBusySeconds(before, after);
  const double capacity = static_cast<double>(globalPool().threadCount()) * composite.seconds;
  layers.set("common.pool_busy_s", busy);
  layers.set("common.pool_capacity_s", capacity);
  layers.set("common.pool_busy_share", busy / capacity);
  if (counters.at("faults_simulated") > 0) {
    layers.set("sim.cone_hit_share", static_cast<double>(counters.at("cone_cache_hits")) /
                                         static_cast<double>(counters.at("faults_simulated")));
  }

  // (b) The traced pass, at one thread: the same inputs through each layer's
  // public calls.
  setGlobalThreadCount(1);
  const WorkloadConfig wl = shardWorkload(shard);
  const obs::MetricsSnapshot passBefore = registry.snapshot();
  tracer.startPass();
  const auto t0 = Clock::now();
  std::uint64_t sumCandidates = 0, sumActual = 0, sessions = 0, detected = 0;
  std::uint64_t pruneInput = 0, pruneRemoved = 0, records = 0;
  std::size_t wrong = 0, faults = 0;
  const std::string path = journalPath();
  {
    SweepCheckpoint checkpoint(path, shardDigest(shard), "repobench soc_sweep traced", false);
    TimingSink sink(&checkpoint, &tracer);
    for (const SocCase& c : socs_) {
      Span prepare(&tracer, "diagnosis.prepare");
      const DiagnosisPipeline pipeline(c.soc->topology(), c.config);
      const SuperpositionPruner pruner(c.soc->topology());
      prepare.close();
      const std::size_t total = c.soc->totalCells();
      for (std::size_t k = 0; k < c.soc->coreCount(); ++k) {
        // socResponsesForFailingCore, call by call (same per-core seed mix).
        const CoreInstance& core = c.soc->core(k);
        WorkloadConfig local = wl;
        local.prpg.seed = wl.prpg.seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
        local.faultSeed = wl.faultSeed ^ (0xc2b2ae3d27d4eb4fULL * (k + 1));
        Span pat(&tracer, "bist.patterns", k);
        const PatternSet patterns = generatePatterns(*core.netlist, local.numPatterns, local.prpg);
        pat.close();
        Span good(&tracer, "sim.good", k);
        const FaultSimulator sim(*core.netlist, patterns);
        good.close();
        Span faultSim(&tracer, "sim.fault", k);
        const FaultList universe = FaultList::enumerateCollapsed(*core.netlist);
        const std::vector<FaultSite> sample =
            universe.sample(std::min(universe.size(), local.numFaults * 4), local.faultSeed);
        std::vector<FaultResponse> responses = sim.collectDetected(sample, local.numFaults);
        faultSim.close();
        detected += responses.size();
        {
          Span lift(&tracer, "soc.responses", k);
          for (FaultResponse& r : responses) {
            BitVector global(total);
            for (std::size_t& ord : r.failingCellOrdinals) {
              ord += core.cellOffset;
              global.set(ord);
            }
            r.failingCells = std::move(global);
          }
        }
        for (std::size_t i = 0; i < responses.size(); ++i) {
          const FaultResponse& r = responses[i];
          Span score(&tracer, "diagnosis.score", i);
          const GroupVerdicts verdicts = pipeline.engine().run(pipeline.prepared(), r);
          score.close();
          Span intersect(&tracer, "diagnosis.intersect", i);
          const CandidateSet raw = pipeline.analyzer().analyze(pipeline.partitions(), verdicts);
          intersect.close();
          Span prune(&tracer, "diagnosis.prune", i);
          const CandidateSet pruned = pruner.prune(pipeline.prepared(), verdicts, raw);
          prune.close();
          sessions += c.config.numPartitions * c.config.groupsPerPartition;
          pruneInput += raw.cellCount();
          pruneRemoved += raw.cellCount() - pruned.cellCount();
          sumCandidates += pruned.cellCount();
          sumActual += r.failingCellCount();
          if (!containsActual(pruned, r)) ++wrong;
          ++faults;
        }
        // The journal layer sees real records only through the checkpointed
        // evaluator, which diagnoses again; that repeat is duplicate work.
        Span journaled(&tracer, "diagnosis.checkpointed", k);
        evaluateWithCheckpoint(pipeline, responses, &sink, socSweepIdFor(c.config, k));
      }
    }
    records = sink.records();
  }
  const double wall = secondsBetween(t0, Clock::now());
  const obs::MetricsSnapshot passAfter = registry.snapshot();
  std::filesystem::remove(path);

  // (c) The same composite at one thread, untraced: the reference wall time.
  const ShardResult single = runShard(shard, /*journaled=*/false);
  if (!checkShard(shard, single)) report_.failed(single.faults, "one-thread composite shard differs");
  setGlobalThreadCount(options_.threads);

  report_.attempted(faults);
  report_.diagnoses(faults, wrong);
  if (sumCandidates != composite.sumCandidates || sumActual != composite.sumActual) {
    report_.failed(faults, "traced decomposition disagrees with evaluateSocDr");
  }
  const std::map<std::string, double> self = tracer.selfSeconds();
  auto selfOf = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::uint64_t simulated = counterDelta(passBefore, passAfter).at("faults_simulated");
  // What the pass adds to reach a layer: the diagnosis it repeats, and the
  // journal, which the untraced sweep does not write. The checkpointed
  // evaluator's own bookkeeping is work the untraced path does too.
  const double duplicate = selfOf("diagnosis.score") + selfOf("diagnosis.intersect") +
                           selfOf("diagnosis.prune") + selfOf("common.journal");
  layers.set("bist.patterns_s", selfOf("bist.patterns"));
  layers.set("sim.good_s", selfOf("sim.good"));
  layers.set("sim.fault_s", selfOf("sim.fault"));
  layers.set("sim.faults", static_cast<double>(simulated));
  layers.set("sim.detected", static_cast<double>(detected));
  layers.set("sim.detect_share",
             simulated ? static_cast<double>(detected) / static_cast<double>(simulated) : 0.0);
  layers.set("soc.responses_s", selfOf("soc.responses"));
  layers.set("diagnosis.prepare_s", selfOf("diagnosis.prepare"));
  layers.set("diagnosis.score_s", selfOf("diagnosis.score"));
  layers.set("diagnosis.sessions", static_cast<double>(sessions));
  layers.set("diagnosis.sessions_per_s", static_cast<double>(sessions) / selfOf("diagnosis.score"));
  layers.set("diagnosis.intersect_s", selfOf("diagnosis.intersect"));
  layers.set("diagnosis.prune_s", selfOf("diagnosis.prune"));
  layers.set("diagnosis.prune_input", static_cast<double>(pruneInput));
  layers.set("diagnosis.prune_removed", static_cast<double>(pruneRemoved));
  layers.set("diagnosis.prune_share",
             pruneInput ? static_cast<double>(pruneRemoved) / static_cast<double>(pruneInput) : 0.0);
  layers.set("common.journal_s", selfOf("common.journal"));
  layers.set("common.journal_records", static_cast<double>(records));
  layers.setTrace(wall, single.seconds, duplicate, tracer.topLevelSeconds());
  layers.setChecks(report_);
  layers.emit(report_);
  tracer.writeJsonl(options_.traceDir + "/soc_sweep.jsonl");
}

int SocSweep::record() {
  socs_ = buildSocs();
  for (std::size_t shard = 0; shard < kPool; ++shard) {
    const ShardResult result = runShard(shard, /*journaled=*/true);
    const std::size_t wrong = gradeShard(shard).wrong;
    std::vector<std::pair<std::string, std::uint64_t>> fields = {{"shard", shard},
                                                                 {"wrong", wrong}};
    fields.insert(fields.end(), result.fields.begin(), result.fields.end());
    for (const auto& [name, value] : result.counters) fields.push_back({"obs." + name, value});
    expected_.add(makeRecord(fields));
    std::fprintf(stderr, "recorded soc_sweep shard %zu: %zu faults, %.3f s, %zu wrong\n", shard,
                 result.faults, result.seconds, wrong);
  }
  expected_.save("shard s: evaluateSocDr(soc1 8x32 and d695 8x8, two-step, pruning) with " +
                 std::to_string(kFaultsPerCore) + " faults per core, faultSeed mixSeed(" +
                 std::to_string(kSeedBase) + ", s)");
  return 0;
}

}  // namespace

int runSocSweep(const Options& options, Report& report) {
  SocSweep sweep(options, report);
  return sweep.run();
}

}  // namespace repobench

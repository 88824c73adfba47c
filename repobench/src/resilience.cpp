// resilience_s35932: the noisy and the defect pipelines on s35932.
//
//  * Noisy half: NoisyPipeline::evaluate over detected faults at 1 % verdict
//    flips with a 64-session retry budget. A shard is one fault sample and
//    one noise seed; the run's seed orders the recorded shard pool.
//  * Defect half: DefectZooPipeline::evaluate over "2,bridge,open" scenarios
//    with the default refinement and PODEM budgets. A pass generates and
//    diagnoses the whole recorded scenario pool, in pool order, in one call.
//    About one scenario in six reaches PODEM and costs several hundred times
//    the others, so a seed-chosen subset or order would decide the figure by
//    how many slow scenarios it drew and which pool chunk they landed in.
//
// A round runs kNoisyPerRound noisy shards and one defect pass.
#include <cstdio>
#include <cstring>
#include <memory>

#include "bist/prpg.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "inject/defect_zoo.hpp"
#include "inject/noisy_pipeline.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"

namespace repobench {
namespace {

using namespace scandiag;

constexpr const char* kCircuit = "s35932";
constexpr std::size_t kNoisyPool = 48;
constexpr std::size_t kNoisyFaults = 2000;
constexpr std::uint64_t kNoisySeed = 0x701513;
constexpr std::size_t kGradedNoisy = 8;
constexpr std::size_t kNoisyPerRound = 8;
constexpr std::size_t kDefectPool = 96;
constexpr std::uint64_t kDefectSeed = 0xDEFEC7;

NoiseConfig shardNoise(std::size_t shard) {
  NoiseConfig noise;
  noise.flipRate = 0.01;
  noise.seed = mixSeed(kNoisySeed ^ 0xA015E, shard);
  return noise;
}

RetryPolicy noisyRetry() {
  RetryPolicy retry;
  retry.sessionBudget = 64;
  return retry;
}

DefectMix defectMix() {
  DefectMix mix = parseDefectSpec("2,bridge,open");
  mix.seed = kDefectSeed;
  return mix;
}

bool containsCells(const CandidateSet& candidates, const std::vector<std::size_t>& cells) {
  for (std::size_t cell : cells) {
    if (!candidates.cells.test(cell)) return false;
  }
  return true;
}

std::uint64_t doubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::size_t misdiagnosedCount(double rate, std::size_t n) {
  return static_cast<std::size_t>(rate * static_cast<double>(n) + 0.5);
}

/// Everything the workload builds before its first diagnosis.
struct Setup {
  Netlist netlist;
  ScanTopology topology;
  std::unique_ptr<PatternSet> patterns;
  std::unique_ptr<FaultSimulator> sim;
  std::unique_ptr<FaultList> universe;
  std::unique_ptr<DefectScenarioGenerator> generator;
  std::unique_ptr<DefectZooPipeline> zoo;
  DiagnosisConfig config;

  explicit Setup(Tracer* tracer) {
    {
      Span s(tracer, "netlist.generate");
      netlist = generateNamedCircuit(kCircuit);
    }
    {
      Span s(tracer, "netlist.levelize");
      const Levelization order = levelize(netlist);
    }
    topology = ScanTopology::singleChain(netlist.dffs().size());
    {
      Span s(tracer, "bist.patterns");
      patterns = std::make_unique<PatternSet>(generatePatterns(netlist, config.numPatterns, PrpgConfig{}));
    }
    {
      Span s(tracer, "sim.good");
      sim = std::make_unique<FaultSimulator>(netlist, *patterns);
    }
    {
      Span s(tracer, "sim.enumerate");
      universe = std::make_unique<FaultList>(FaultList::enumerateCollapsed(netlist));
    }
    {
      Span s(tracer, "inject.generator");
      generator = std::make_unique<DefectScenarioGenerator>(*sim, defectMix());
    }
    {
      Span s(tracer, "diagnosis.prepare");
      zoo = std::make_unique<DefectZooPipeline>(*sim, topology, config, DefectPolicy{});
    }
  }
};

class Resilience {
 public:
  Resilience(const Options& options, Report& report)
      : options_(options),
        report_(report),
        noisyExpected_(options, "resilience_s35932.noisy"),
        defectExpected_(options, "resilience_s35932.defect") {}

  int run();

 private:
  struct NoisyResult {
    double seconds = 0.0;
    std::vector<FaultResponse> responses;
    NoisyDrReport report;
    std::map<std::string, std::uint64_t> counters;
  };
  struct DefectResult {
    double seconds = 0.0;
    DefectZooReport report;
    std::map<std::string, std::uint64_t> counters;
  };

  std::vector<FaultSite> noisySample(std::size_t shard) const {
    return setup_->universe->sample(std::min(setup_->universe->size(), kNoisyFaults * 4),
                                    mixSeed(kNoisySeed, shard));
  }
  NoisyResult runNoisy(std::size_t shard);
  bool checkNoisy(std::size_t shard, const NoisyResult& result);
  /// One pass: every pool scenario generated, then diagnosed in one call.
  DefectResult runDefects();
  bool checkDefects(const DefectResult& result);
  void traced(std::size_t noisyShard);
  int record();

  const Options& options_;
  Report& report_;
  ExpectedStore noisyExpected_;
  ExpectedStore defectExpected_;
  std::unique_ptr<Setup> setup_;
};

Resilience::NoisyResult Resilience::runNoisy(std::size_t shard) {
  NoisyResult result;
  const NoisyPipeline pipeline(setup_->topology, setup_->config, shardNoise(shard), noisyRetry());
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  const auto t0 = Clock::now();
  result.responses = setup_->sim->collectDetected(noisySample(shard), kNoisyFaults);
  result.report = pipeline.evaluate(result.responses);
  result.seconds = secondsBetween(t0, Clock::now());
  result.counters = counterDelta(before, obs::MetricsRegistry::instance().snapshot());
  // The simulator lives across shards, so its cone-cache hits depend on which
  // shards ran before; every other counter is a function of the shard alone.
  result.counters.erase("cone_cache_hits");
  return result;
}

std::vector<std::pair<std::string, std::uint64_t>> noisyFields(const NoisyDrReport& r) {
  return {{"faults", r.faults},
          {"candidates", r.sumCandidates},
          {"actual", r.sumActual},
          {"misdiagnosed", misdiagnosedCount(r.misdiagnosisRate, r.faults)},
          {"empty", misdiagnosedCount(r.emptyRate, r.faults)},
          {"inconsistencies", r.totalInconsistencies},
          {"retry_sessions", r.totalRetrySessions},
          {"unresolved", r.unresolved},
          {"confidence_bits", doubleBits(r.meanConfidence)}};
}

bool Resilience::checkNoisy(std::size_t shard, const NoisyResult& result) {
  const scandiag::JsonValue& expected = noisyExpected_.shard(shard);
  const std::string where = "noisy.shard" + std::to_string(shard);
  bool ok = true;
  for (const auto& [key, value] : noisyFields(result.report)) {
    ok = report_.expectEqual(expected, key, value, where) && ok;
  }
  return checkCounters(report_, expected, result.counters, where) && ok;
}

Resilience::DefectResult Resilience::runDefects() {
  DefectResult result;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  const auto t0 = Clock::now();
  std::vector<DefectScenario> scenarios;
  scenarios.reserve(kDefectPool);
  for (std::size_t i = 0; i < kDefectPool; ++i) scenarios.push_back(setup_->generator->generate(i));
  result.report = setup_->zoo->evaluate(scenarios);
  result.seconds = secondsBetween(t0, Clock::now());
  result.counters = counterDelta(before, obs::MetricsRegistry::instance().snapshot());
  result.counters.erase("cone_cache_hits");
  return result;
}

const std::vector<std::string>& defectKeys() {
  static const std::vector<std::string> keys = {
      "candidates", "actual",         "misdiagnosed",   "degraded", "inconsistencies",
      "union_splits", "atpg_patterns", "extra_sessions"};
  return keys;
}

bool Resilience::checkDefects(const DefectResult& result) {
  // Scenario outputs are recorded one by one; a pass must equal their sums.
  std::map<std::string, std::uint64_t> want;
  std::map<std::string, std::uint64_t> wantCounters;
  double confidenceSum = 0.0;
  for (std::size_t i = 0; i < kDefectPool; ++i) {
    const scandiag::JsonValue& rec = defectExpected_.shard(i);
    for (const std::string& key : defectKeys()) want[key] += rec.at(key).asUint();
    for (const auto& [key, value] : rec.members()) {
      if (key.rfind("obs.", 0) == 0) wantCounters[key] += value.asUint();
    }
    double conf = 0.0;
    const std::uint64_t bits = rec.at("confidence_bits").asUint();
    std::memcpy(&conf, &bits, sizeof(conf));
    confidenceSum += conf;
  }
  const DefectZooReport& r = result.report;
  const std::map<std::string, std::uint64_t> got = {
      {"candidates", r.sumCandidates},
      {"actual", r.sumActual},
      {"misdiagnosed", misdiagnosedCount(r.misdiagnosisRate, r.scenarios)},
      {"degraded", r.degraded},
      {"inconsistencies", r.totalInconsistencies},
      {"union_splits", r.totalUnionSplits},
      {"atpg_patterns", r.totalAtpgPatterns},
      {"extra_sessions", r.totalExtraSessions}};
  bool ok = report_.expectEqual("defect.pass.scenarios", r.scenarios, kDefectPool);
  for (const std::string& key : defectKeys()) {
    ok = report_.expectEqual("defect.pass." + key, got.at(key), want.at(key)) && ok;
  }
  const double mean = confidenceSum / static_cast<double>(kDefectPool);
  if (std::abs(mean - r.meanConfidence) > 1e-12 * std::max(1.0, std::abs(mean))) {
    std::fprintf(stderr, "repobench: defect mean confidence %.17g, recorded %.17g\n",
                 r.meanConfidence, mean);
    ok = false;
  }
  std::vector<std::pair<std::string, scandiag::JsonValue>> members;
  for (const auto& [key, value] : wantCounters) {
    members.emplace_back(key, scandiag::JsonValue::makeUint(value));
  }
  return checkCounters(report_, scandiag::JsonValue::makeObject(std::move(members)), result.counters,
                       "defect.pass") &&
         ok;
}

int Resilience::run() {
  if (options_.record) return record();
  if (noisyExpected_.poolSize() != kNoisyPool || defectExpected_.poolSize() != kDefectPool) {
    throw std::runtime_error("resilience pool sizes changed");
  }
  std::vector<double> setups;
  const std::size_t reps = options_.smoke ? 1 : kSetups;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    setup_ = std::make_unique<Setup>(nullptr);
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  const std::vector<std::size_t> noisyOrder = shardOrder(kNoisyPool, options_.seed);
  if (options_.trace) {
    traced(noisyOrder[0]);
    return 0;
  }

  // The graded noisy shards are the same for every seed, so dr and
  // sound_share compare across runs; the seed orders the rest of the pool.
  const std::size_t perRound = options_.smoke ? 1 : kNoisyPerRound;
  const std::size_t graded = options_.smoke ? 1 : kGradedNoisy;
  std::vector<std::size_t> sequence;
  for (std::size_t s = 0; s < graded; ++s) sequence.push_back(s);
  for (std::size_t s : noisyOrder) {
    if (s >= graded) sequence.push_back(s);
  }
  // Untimed: the fault cones of every pool shard enter the simulator's
  // cache, so each timed shard runs at the cache's steady state whatever
  // the seed's order or the number of rounds that fit into the run.
  for (std::size_t s = 0; s < kNoisyPool; ++s) {
    setup_->sim->collectDetected(noisySample(s), kNoisyFaults);
  }

  std::vector<double> faultRates, scenarioRates;
  BatchFigures noisyBatches, roundFigures;
  std::size_t shards = 0, noisyWrong = 0, defectWrong = 0;
  double noisySeconds = 0.0, defectSeconds = 0.0;
  Rounds rounds(options_, graded / perRound);
  for (; rounds.more(); rounds.finished()) {
    std::size_t roundOps = 0;
    double roundSeconds = 0.0;
    for (std::size_t j = 0; j < perRound; ++j, ++shards) {
      const std::size_t shard = sequence[shards % sequence.size()];
      const NoisyResult result = runNoisy(shard);
      noisySeconds += result.seconds;
      report_.attempted(result.report.faults);
      if (!checkNoisy(shard, result)) {
        report_.failed(result.report.faults, "noisy shard " + std::to_string(shard) + " differs");
      }
      if (shards < graded) {
        const std::size_t wrong = misdiagnosedCount(result.report.misdiagnosisRate, result.report.faults);
        noisyWrong += wrong;
        report_.diagnoses(result.report.faults, wrong);
        report_.resolution(result.report.sumCandidates, result.report.sumActual);
      }
      faultRates.push_back(static_cast<double>(result.report.faults) / result.seconds);
      noisyBatches.add(result.report.faults, result.seconds);
      roundOps += result.report.faults;
      roundSeconds += result.seconds;
    }

    const DefectResult result = runDefects();
    defectSeconds += result.seconds;
    report_.attempted(result.report.scenarios);
    if (!checkDefects(result)) {
      report_.failed(result.report.scenarios, "defect pass " + std::to_string(rounds.count()) + " differs");
    }
    if (rounds.count() == 0) {
      defectWrong = misdiagnosedCount(result.report.misdiagnosisRate, result.report.scenarios);
      report_.diagnoses(result.report.scenarios, defectWrong);
      report_.resolution(result.report.sumCandidates, result.report.sumActual);
    }
    scenarioRates.push_back(static_cast<double>(result.report.scenarios) / result.seconds);
    roundFigures.add(roundOps + result.report.scenarios, roundSeconds + result.seconds);
  }
  // Degrade-never-lie: a defect diagnosis may widen, never exonerate.
  if (defectWrong > 0) report_.invalid("defect half exonerated a true failing cell");

  report_.metric("setup_s", median(setups), "s");
  report_.metric("faults_per_s", median(faultRates), "faults/s");
  report_.metric("scenarios_per_s", median(scenarioRates), "scenarios/s");
  reportBatches(report_, noisyBatches, roundFigures, "resilience noisy shards");
  report_.emitQuality();
  report_.metric("peak_rss_mb", peakRssMb(), "MiB");
  char line[240];
  std::snprintf(line, sizeof(line),
                "resilience: %zu rounds; %zu noisy shards in %.3f s (%zu graded, %zu "
                "wrong); %zu defect passes of %zu scenarios in %.3f s (%zu wrong)",
                rounds.count(), shards, noisySeconds, graded, noisyWrong,
                rounds.count(), kDefectPool, defectSeconds, defectWrong);
  report_.note(line);
  return 0;
}

void Resilience::traced(std::size_t noisyShard) {
  LayerMetrics layers;
  Tracer tracer;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  {
    // Setup layers, timed one public call at a time.
    const Setup traceSetup(&tracer);
    const std::map<std::string, double> self = tracer.selfSeconds();
    layers.set("netlist.generate_s", self.at("netlist.generate"));
    layers.set("netlist.levelize_s", self.at("netlist.levelize"));
    layers.set("bist.patterns_s", self.at("bist.patterns"));
    layers.set("sim.good_s", self.at("sim.good"));
    layers.set("diagnosis.prepare_s", self.at("diagnosis.prepare"));
  }

  // (a) The composite calls at the benchmark's pool size.
  const obs::MetricsSnapshot before = registry.snapshot();
  const NoisyResult noisy = runNoisy(noisyShard);
  const DefectResult defects = runDefects();
  const obs::MetricsSnapshot after = registry.snapshot();
  const double compositeWall = noisy.seconds + defects.seconds;
  report_.attempted(noisy.report.faults + defects.report.scenarios);
  if (!checkNoisy(noisyShard, noisy)) report_.failed(noisy.report.faults, "traced noisy shard differs");
  if (!checkDefects(defects)) report_.failed(defects.report.scenarios, "traced defect pass differs");
  const std::map<std::string, std::uint64_t> counters = counterDelta(before, after);
  layers.setCounters(counters);
  const double busy = poolBusySeconds(before, after);
  const double capacity = static_cast<double>(globalPool().threadCount()) * compositeWall;
  layers.set("common.pool_busy_s", busy);
  layers.set("common.pool_capacity_s", capacity);
  layers.set("common.pool_busy_share", busy / capacity);
  if (counters.at("faults_simulated") > 0) {
    layers.set("sim.cone_hit_share", static_cast<double>(counters.at("cone_cache_hits")) /
                                         static_cast<double>(counters.at("faults_simulated")));
  }
  layers.set("inject.noise_events", static_cast<double>(counters.at("noise_events_injected")));

  // (b) The traced pass, at one thread, one public call at a time. The PODEM
  // stall-breaker is reachable only inside DefectZooPipeline::diagnose, so
  // each scenario is diagnosed at the default ATPG budget and at budget 0;
  // the difference is the atpg layer. Likewise recovery is
  // NoisyPipeline::diagnose minus the clean score + intersect of the same
  // response.
  setGlobalThreadCount(1);
  DefectPolicy noAtpg;
  noAtpg.atpgSessionBudget = 0;
  const DefectZooPipeline zooNoAtpg(*setup_->sim, setup_->topology, setup_->config, noAtpg);
  const NoisyPipeline noisyPipeline(setup_->topology, setup_->config, shardNoise(noisyShard),
                                    noisyRetry());
  const DiagnosisPipeline& clean = noisyPipeline.base();
  const obs::MetricsSnapshot passBefore = registry.snapshot();
  tracer.startPass();
  const auto t0 = Clock::now();
  std::size_t wrong = 0, diagnosed = 0, defectWrong = 0;
  double recover = 0.0, duplicate = 0.0, atpg = 0.0, atpgMax = 0.0;
  std::uint64_t retrySessions = 0, inconsistencies = 0, sessions = 0;
  std::size_t detected = 0;
  {
    Span sim(&tracer, "sim.fault");
    const std::vector<FaultResponse> responses =
        setup_->sim->collectDetected(noisySample(noisyShard), kNoisyFaults);
    sim.close();
    detected = responses.size();
    for (std::size_t i = 0; i < responses.size(); ++i) {
      Span noisySpan(&tracer, "diagnosis.noisy", i);
      const ResilientDiagnosis d = noisyPipeline.diagnose(responses[i], i);
      const double tNoisy = noisySpan.close();
      Span score(&tracer, "diagnosis.score", i);
      const GroupVerdicts verdicts = clean.engine().run(clean.prepared(), responses[i]);
      const double tScore = score.close();
      Span intersect(&tracer, "diagnosis.intersect", i);
      const CandidateSet candidates = clean.analyzer().analyze(clean.partitions(), verdicts);
      const double tIntersect = intersect.close();
      (void)candidates;
      recover += tNoisy - tScore - tIntersect;
      duplicate += tScore + tIntersect;
      sessions += setup_->config.numPartitions * setup_->config.groupsPerPartition;
      retrySessions += d.retrySessions;
      inconsistencies += d.inconsistencies;
      if (!containsCells(d.candidates, responses[i].failingCellOrdinals)) ++wrong;
      ++diagnosed;
    }
  }
  std::size_t useful = 0, degraded = 0;
  std::uint64_t atpgPatterns = 0;
  double unionSeconds = 0.0;
  for (std::size_t index = 0; index < kDefectPool; ++index) {
    Span gen(&tracer, "inject.scenario_gen", index);
    const DefectScenario scenario = setup_->generator->generate(index);
    gen.close();
    Span base(&tracer, "diagnosis.union", index);
    const DefectDiagnosis without = zooNoAtpg.diagnose(scenario);
    const double t0Budget = base.close();
    Span full(&tracer, "defect.diagnose", index);
    const DefectDiagnosis with = setup_->zoo->diagnose(scenario);
    const double tFull = full.close();
    unionSeconds += t0Budget;
    const double atpgPart = tFull - t0Budget;
    atpg += atpgPart;
    atpgMax = std::max(atpgMax, atpgPart);
    duplicate += t0Budget;
    atpgPatterns += with.atpgPatterns;
    if (with.candidateCount != without.candidateCount || with.resolved != without.resolved ||
        !(with.candidates.cells == without.candidates.cells)) {
      ++useful;
    }
    if (!with.resolved) ++degraded;
    if (!containsCells(with.candidates, scenario.composed.failingCellOrdinals)) ++defectWrong;
    ++diagnosed;
  }
  const double wall = secondsBetween(t0, Clock::now());
  const obs::MetricsSnapshot passAfter = registry.snapshot();

  // (c) The same composite calls at one thread, untraced: the reference.
  const double untraced = runNoisy(noisyShard).seconds + runDefects().seconds;
  setGlobalThreadCount(options_.threads);

  report_.attempted(diagnosed);
  report_.diagnoses(diagnosed, wrong + defectWrong);
  if (defectWrong > 0) report_.invalid("defect half exonerated a true failing cell");
  const std::map<std::string, double> self = tracer.selfSeconds();
  auto selfOf = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::uint64_t simulated = counterDelta(passBefore, passAfter).at("faults_simulated");
  layers.set("sim.fault_s", selfOf("sim.fault"));
  layers.set("sim.faults", static_cast<double>(simulated));
  layers.set("sim.detected", static_cast<double>(detected));
  layers.set("sim.detect_share",
             simulated ? static_cast<double>(detected) / static_cast<double>(simulated) : 0.0);
  layers.set("diagnosis.score_s", selfOf("diagnosis.score"));
  layers.set("diagnosis.sessions", static_cast<double>(sessions));
  layers.set("diagnosis.sessions_per_s", static_cast<double>(sessions) / selfOf("diagnosis.score"));
  layers.set("diagnosis.intersect_s", selfOf("diagnosis.intersect"));
  layers.set("diagnosis.recover_s", recover);
  layers.set("diagnosis.retry_sessions", static_cast<double>(retrySessions));
  layers.set("diagnosis.inconsistencies", static_cast<double>(inconsistencies));
  layers.set("diagnosis.union_s", unionSeconds);
  layers.set("atpg.s", atpg);
  layers.set("atpg.patterns", static_cast<double>(atpgPatterns));
  layers.set("atpg.useful", static_cast<double>(useful));
  layers.set("atpg.scenarios", static_cast<double>(kDefectPool));
  layers.set("atpg.useful_share", static_cast<double>(useful) / static_cast<double>(kDefectPool));
  layers.set("atpg.scenario_max_s", atpgMax);
  layers.set("inject.scenario_gen_s", selfOf("inject.scenario_gen"));
  layers.set("inject.degraded", static_cast<double>(degraded));
  layers.set("inject.scenarios", static_cast<double>(kDefectPool));
  layers.set("inject.degraded_share", static_cast<double>(degraded) / static_cast<double>(kDefectPool));
  layers.setTrace(wall, untraced, duplicate, tracer.topLevelSeconds());
  layers.setChecks(report_);
  layers.emit(report_);
  tracer.writeJsonl(options_.traceDir + "/resilience_s35932.jsonl");
}

int Resilience::record() {
  setup_ = std::make_unique<Setup>(nullptr);
  for (std::size_t shard = 0; shard < kNoisyPool; ++shard) {
    const NoisyResult result = runNoisy(shard);
    // Ground truth checked here, fault by fault, with the same noise keys.
    const NoisyPipeline pipeline(setup_->topology, setup_->config, shardNoise(shard), noisyRetry());
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < result.responses.size(); ++i) {
      const ResilientDiagnosis d = pipeline.diagnose(result.responses[i], i);
      if (!containsCells(d.candidates, result.responses[i].failingCellOrdinals)) ++wrong;
    }
    if (wrong != misdiagnosedCount(result.report.misdiagnosisRate, result.report.faults)) {
      throw std::runtime_error("noisy misdiagnosis count disagrees with ground truth");
    }
    std::vector<std::pair<std::string, std::uint64_t>> fields = {{"shard", shard}};
    const auto report = noisyFields(result.report);
    fields.insert(fields.end(), report.begin(), report.end());
    for (const auto& [name, value] : result.counters) fields.push_back({"obs." + name, value});
    noisyExpected_.add(makeRecord(fields));
    std::fprintf(stderr, "recorded noisy shard %zu: %zu faults %.3f s\n", shard, result.report.faults,
                 result.seconds);
  }
  noisyExpected_.save("shard s: " + std::to_string(kNoisyFaults) +
                      " detected s35932 faults sampled with mixSeed(" + std::to_string(kNoisySeed) +
                      ", s), 1% flips, 64-session retry budget");
  setGlobalThreadCount(1);
  for (std::size_t index = 0; index < kDefectPool; ++index) {
    const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
    const auto t0 = Clock::now();
    const DefectScenario scenario = setup_->generator->generate(index);
    const DefectDiagnosis d = setup_->zoo->diagnose(scenario);
    const double seconds = secondsBetween(t0, Clock::now());
    std::map<std::string, std::uint64_t> counters =
        counterDelta(before, obs::MetricsRegistry::instance().snapshot());
    counters.erase("cone_cache_hits");
    const bool wrong = !containsCells(d.candidates, scenario.composed.failingCellOrdinals);
    if (wrong != d.misdiagnosed) throw std::runtime_error("defect misdiagnosis flag disagrees");
    std::vector<std::pair<std::string, std::uint64_t>> fields = {
        {"shard", index},
        {"candidates", d.candidateCount},
        {"actual", d.actualCount},
        {"misdiagnosed", d.misdiagnosed ? 1u : 0u},
        {"degraded", d.resolved ? 0u : 1u},
        {"inconsistencies", d.inconsistencies},
        {"union_splits", d.unionSplits},
        {"atpg_patterns", d.atpgPatterns},
        {"extra_sessions", d.extraSessions},
        {"confidence_bits", doubleBits(d.confidence)},
        {"recorded_us", static_cast<std::uint64_t>(seconds * 1e6)}};
    for (const auto& [name, value] : counters) fields.push_back({"obs." + name, value});
    defectExpected_.add(makeRecord(fields));
    std::fprintf(stderr, "recorded defect scenario %zu: %.3f s\n", index, seconds);
  }
  defectExpected_.save("scenario i of \"2,bridge,open\" with mix seed " +
                       std::to_string(kDefectSeed) + ", default DefectPolicy");
  setGlobalThreadCount(options_.threads);
  return 0;
}

}  // namespace

int runResilience(const Options& options, Report& report) {
  Resilience workload(options, report);
  return workload.run();
}

}  // namespace repobench

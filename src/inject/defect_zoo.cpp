#include "inject/defect_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "atpg/podem.hpp"
#include "common/assert.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/open_faults.hpp"

namespace scandiag {

namespace {

// Seed-mixing constants for the activation streams: the VerdictCorruptor
// idiom (distinct odd multipliers per coordinate, splitmix-expanded by the
// Xoroshiro constructor) so every (scenario, component, attempt, partition)
// tuple draws an independent, replayable stream.
constexpr std::uint64_t kScenarioMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kComponentMix = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kAttemptMix = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPartitionMix = 0x27d4eb2f165667c5ULL;

constexpr std::size_t kPoolSize = 256;     // bridge / open candidate pools
constexpr std::size_t kMaxDrawTries = 64;  // draws per component before giving up

// PODEM backtracks per capture-cell fault in the refinement stall breaker.
constexpr std::size_t kAtpgBacktrackLimit = 2000;

}  // namespace

DefectMix parseDefectSpec(const std::string& spec) {
  // The appended comma keeps an empty last field ("2,"), which is refused.
  std::vector<std::string> fields;
  std::istringstream in(spec + ',');
  for (std::string field; std::getline(in, field, ',');) fields.push_back(field);
  DefectMix mix;
  mix.k = parseUnsigned(fields.front(), "defect spec fault count k");
  if (mix.k == 0) throw std::invalid_argument("defect spec: fault count k must be at least 1");
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& t = fields[i];
    if (t == "bridge" || t == "bridges") {
      mix.bridges = true;
    } else if (t == "open" || t == "opens") {
      mix.opens = true;
    } else if (t.rfind("intermittent:", 0) == 0) {
      const std::string p = t.substr(std::string("intermittent:").size());
      mix.intermittentP = parseReal(p, "defect spec intermittent probability");
      if (!(mix.intermittentP > 0.0 && mix.intermittentP < 1.0)) {
        throw std::invalid_argument(
            "defect spec: intermittent probability must be in (0,1), got '" + p + "'");
      }
    } else if (t.rfind("seed:", 0) == 0) {
      mix.seed = parseUnsigned(t.substr(5), "defect spec seed");
    } else {
      throw std::invalid_argument(
          "defect spec: unknown field '" + t +
          "' (expected bridge, open, intermittent:p, or seed:n)");
    }
  }
  return mix;
}

std::string describeDefectMix(const DefectMix& mix) {
  std::ostringstream out;
  out << mix.k;
  if (mix.bridges) out << ",bridge";
  if (mix.opens) out << ",open";
  if (mix.intermittentP > 0.0) out << ",intermittent:" << mix.intermittentP;
  return out.str();
}

bool DefectScenario::intermittent() const {
  for (const DefectComponent& c : components) {
    if (c.intermittent()) return true;
  }
  return false;
}

FaultResponse composeUnionResponse(const std::vector<const FaultResponse*>& parts) {
  FaultResponse out;
  std::size_t cellUniverse = 0;
  // Ordinal-keyed merge keeps the parallel arrays sorted, matching the
  // simulator's output convention.
  std::map<std::size_t, BitVector> streams;
  for (const FaultResponse* part : parts) {
    if (part == nullptr) continue;
    if (out.failingCellOrdinals.empty() && streams.empty()) out.fault = part->fault;
    cellUniverse = std::max(cellUniverse, part->failingCells.size());
    for (std::size_t i = 0; i < part->failingCellOrdinals.size(); ++i) {
      const std::size_t ordinal = part->failingCellOrdinals[i];
      const BitVector& stream = part->errorStreams[i];
      auto [it, fresh] = streams.emplace(ordinal, stream);
      if (!fresh) {
        SCANDIAG_REQUIRE(it->second.size() == stream.size(),
                         "union overlay: mismatched error-stream lengths");
        it->second |= stream;
      }
    }
  }
  out.failingCells = BitVector(cellUniverse);
  for (auto& [ordinal, stream] : streams) {
    if (stream.none()) continue;
    out.failingCells.set(ordinal);
    out.failingCellOrdinals.push_back(ordinal);
    out.errorStreams.push_back(std::move(stream));
  }
  return out;
}

BitVector intermittentActivationMask(std::uint64_t seed, std::size_t scenario,
                                     std::size_t component, std::size_t attempt,
                                     std::size_t partition, double p,
                                     std::size_t numPatterns) {
  std::uint64_t s = seed;
  s ^= (static_cast<std::uint64_t>(scenario) + 1) * kScenarioMix;
  s ^= (static_cast<std::uint64_t>(component) + 1) * kComponentMix;
  s ^= (static_cast<std::uint64_t>(attempt) + 1) * kAttemptMix;
  s ^= (static_cast<std::uint64_t>(partition) + 1) * kPartitionMix;
  Xoroshiro128 rng(s);
  BitVector mask(numPatterns);
  for (std::size_t t = 0; t < numPatterns; ++t) {
    if (rng.nextDouble() < p) mask.set(t);
  }
  return mask;
}

FaultResponse maskResponse(const FaultResponse& response, const BitVector& activation) {
  FaultResponse out;
  out.fault = response.fault;
  out.failingCells = BitVector(response.failingCells.size());
  for (std::size_t i = 0; i < response.failingCellOrdinals.size(); ++i) {
    SCANDIAG_REQUIRE(response.errorStreams[i].size() == activation.size(),
                     "activation mask does not match the pattern count");
    BitVector masked = response.errorStreams[i] & activation;
    if (masked.none()) continue;
    out.failingCells.set(response.failingCellOrdinals[i]);
    out.failingCellOrdinals.push_back(response.failingCellOrdinals[i]);
    out.errorStreams.push_back(std::move(masked));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scenario generation.

DefectScenarioGenerator::DefectScenarioGenerator(const FaultSimulator& simulator,
                                                 const DefectMix& mix)
    : sim_(&simulator), mix_(mix), stuckPool_(simulator.netlist().collapsedFaults()) {
  SCANDIAG_REQUIRE(mix.k >= 1, "defect mix needs k >= 1");
  SCANDIAG_REQUIRE(!stuckPool_->empty(), "empty stuck-at fault universe");
  // Every component occupies gates no other component of its scenario does.
  const Netlist& netlist = simulator.netlist();
  if (mix.k > netlist.gateCount()) {
    throw std::invalid_argument("defect spec '" + describeDefectMix(mix) + "': k = " +
                                std::to_string(mix.k) + " exceeds the " +
                                std::to_string(netlist.gateCount()) + " gates of " +
                                netlist.name() + " (each defect needs its own gates)");
  }
  if (mix.bridges) {
    bridgePool_ = enumerateBridgeCandidates(netlist, kPoolSize, mix.seed ^ 0xB21D6EULL);
  }
  if (mix.opens) {
    openPool_ = enumerateOpenSites(netlist, kPoolSize, mix.seed ^ 0x00BE5ULL);
  }
}

DefectScenario DefectScenarioGenerator::generate(std::size_t index) const {
  DefectScenario out;
  out.index = index;
  out.seed = mix_.seed ^ ((static_cast<std::uint64_t>(index) + 1) * kScenarioMix);
  Xoroshiro128 rng(out.seed ^ 0xD15EA5EULL);

  std::vector<DefectKind> kinds{DefectKind::StuckAt};
  if (!bridgePool_.empty()) kinds.push_back(DefectKind::Bridge);
  if (!openPool_.empty()) kinds.push_back(DefectKind::StuckOpen);

  std::set<GateId> usedSites;
  for (std::size_t c = 0; c < mix_.k; ++c) {
    DefectComponent comp;
    bool drawn = false;
    for (std::size_t tries = 0; tries < kMaxDrawTries && !drawn; ++tries) {
      const DefectKind kind = kinds[rng.nextBelow(kinds.size())];
      switch (kind) {
        case DefectKind::StuckAt: {
          const FaultSite site = (*stuckPool_)[rng.nextBelow(stuckPool_->size())];
          if (usedSites.count(site.gate) != 0) break;
          FaultResponse resp = sim_->simulate(site);
          if (!resp.detected()) break;
          comp.kind = kind;
          comp.fault = site;
          comp.response = std::move(resp);
          usedSites.insert(site.gate);
          drawn = true;
          break;
        }
        case DefectKind::Bridge: {
          const BridgeFault bridge = bridgePool_[rng.nextBelow(bridgePool_.size())];
          if (usedSites.count(bridge.a) != 0 || usedSites.count(bridge.b) != 0) break;
          FaultResponse resp = sim_->simulateBridge(bridge);
          if (!resp.detected()) break;
          comp.kind = kind;
          comp.bridge = bridge;
          comp.fault = resp.fault;
          comp.response = std::move(resp);
          usedSites.insert(bridge.a);
          usedSites.insert(bridge.b);
          drawn = true;
          break;
        }
        case DefectKind::StuckOpen: {
          const GateId site = openPool_[rng.nextBelow(openPool_.size())];
          if (usedSites.count(site) != 0) break;
          FaultResponse resp = simulateOpen(*sim_, site);
          if (!resp.detected()) break;
          comp.kind = kind;
          comp.fault = resp.fault;
          comp.response = std::move(resp);
          usedSites.insert(site);
          drawn = true;
          break;
        }
      }
    }
    if (!drawn) {
      throw std::invalid_argument(
          "defect spec '" + describeDefectMix(mix_) + "': scenario " + std::to_string(index) +
          " found no detected site for defect " + std::to_string(c + 1) + " of k = " +
          std::to_string(mix_.k) + " (pool too sparse)");
    }
    out.components.push_back(std::move(comp));
  }

  if (mix_.intermittentP > 0.0) {
    // Even components are intermittent: component 0 always is (every scenario
    // of an intermittent mix exercises degradation), and with k >= 2 at least
    // one permanent component remains to anchor the union.
    for (std::size_t i = 0; i < out.components.size(); i += 2) {
      out.components[i].activation = mix_.intermittentP;
    }
  }

  std::vector<const FaultResponse*> parts;
  parts.reserve(out.components.size());
  for (const DefectComponent& comp : out.components) parts.push_back(&comp.response);
  out.composed = composeUnionResponse(parts);
  return out;
}

// ---------------------------------------------------------------------------
// Diagnosis.

DefectZooPipeline::DefectZooPipeline(const FaultSimulator& simulator,
                                     const ScanTopology& topology,
                                     const DiagnosisConfig& config, const DefectPolicy& policy)
    : sim_(&simulator),
      topology_(&topology),
      base_(topology, config),
      recovery_(topology, policy.retry),
      refiner_(topology, UnionRefineConfig{policy.refineSessionBudget}),
      policy_(policy),
      adiPrior_(adiPriorFromGoodCaptures(topology, simulator.goodCaptures())),
      atpg_(policy.atpgSessionBudget > 0 ? std::make_unique<PodemAtpg>(simulator.netlist())
                                         : nullptr) {
  SCANDIAG_REQUIRE(config.scheme != SchemeKind::Adaptive,
                   "defect-zoo diagnosis needs a fixed partition schedule");
}

DefectZooPipeline::~DefectZooPipeline() = default;

DefectDiagnosis DefectZooPipeline::diagnose(const DefectScenario& scenario) const {
  obs::count(obs::Counter::DefectScenariosRun);
  SCANDIAG_REQUIRE(!scenario.components.empty(), "empty defect scenario");
  if (scenario.intermittent()) return diagnoseIntermittent(scenario);
  return diagnosePermanent(scenario);
}

DefectDiagnosis DefectZooPipeline::diagnosePermanent(const DefectScenario& scenario) const {
  const FaultResponse& response = scenario.composed;

  DefectDiagnosis out;
  out.actualCount = response.failingCellCount();

  // Detection + bounded recovery. A genuine permanent union replays
  // bit-identically, so any DisjointFailingUnion report short-circuits into
  // the checked union mode after one confirming re-run (satellite fix).
  const PreparedPartitionSet& prepared = base_.prepared();
  const GroupVerdicts verdicts = base_.engine().run(prepared, response);
  const PartitionRerun rerun = [&](std::size_t partition, std::size_t) {
    return base_.engine().runPartition(prepared, partition, response);
  };
  const RecoveredDiagnosis recovered =
      recovery_.recover(prepared.partitions(), verdicts, rerun);
  out.inconsistencies = recovered.inconsistencies.size();
  out.extraSessions = recovered.retrySessions;
  out.confidence = recovered.confidence;
  if (recovered.unionDiagnosis && recovered.unionClusters > 1) {
    out.unionSplits += recovered.unionClusters - 1;
  }

  CandidateSet candidates = recovered.candidates;
  bool degraded = !recovered.resolved;
  // Recovery counts DegradedSupersets itself on the over-budget union path;
  // remember so the final accounting does not double-count.
  const bool recoveryCounted = recovered.unionDiagnosis && !recovered.resolved;

  // Active refinement: interval sessions shrink the passive superset's
  // accidental survivors, highest-ADI segments first.
  std::size_t unresolvedLeft = 0;
  std::size_t clusters = recovered.unionDiagnosis ? recovered.unionClusters : 1;
  if (policy_.refineSessionBudget > 0 && candidates.positions.any()) {
    const BitVector truePositions = topology_->collapseCells(response.failingCells);
    const IntervalOracle oracle = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t p = lo; p < hi; ++p) {
        if (truePositions.test(p)) return true;
      }
      return false;
    };
    const UnionRefinement refined = refiner_.refine(candidates.positions, adiPrior_, oracle);
    out.unionSplits += refined.splits;
    out.extraSessions += refined.sessions;
    candidates = refined.candidates;

    BitVector confirmed = refined.confirmed;
    BitVector pendingMask = refined.unresolved;
    // PODEM stall breaker: distinguishing mini-sessions targeted at the
    // unresolved positions. A manifested error CONFIRMS a position; a silent
    // mini-session proves nothing (the defect may simply not have been
    // excited), so the position stays an unresolved candidate — refinement
    // never exonerates on ATPG evidence (degrade-never-lie).
    if (atpg_ != nullptr && !refined.complete) {
      std::vector<std::size_t> pending = pendingMask.toIndices();
      std::stable_sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
        if (adiPrior_[a] != adiPrior_[b]) return adiPrior_[a] > adiPrior_[b];
        return a < b;
      });
      const Netlist& netlist = sim_->netlist();
      const std::vector<GateId>& dffs = netlist.dffs();
      std::size_t atpgSessions = 0;
      for (const std::size_t pos : pending) {
        if (atpgSessions >= policy_.atpgSessionBudget) break;
        std::vector<TestCube> cubes;
        for (std::size_t chain = 0; chain < topology_->numChains(); ++chain) {
          if (pos >= topology_->chainLength(chain)) continue;
          const GateId dff = dffs.at(topology_->chain(chain)[pos]);
          for (const bool stuckAt : {false, true}) {
            const AtpgResult result =
                atpg_->generate(FaultSite{dff, 0, stuckAt}, kAtpgBacktrackLimit);
            if (result.outcome == AtpgOutcome::Detected) cubes.push_back(result.cube);
          }
        }
        if (cubes.empty()) continue;  // untestable capture path: stays unresolved
        obs::count(obs::Counter::AtpgPatternsGenerated, cubes.size());
        out.atpgPatterns += cubes.size();
        ++atpgSessions;
        ++out.extraSessions;
        const PatternSet distinguishing =
            patternsFromCubes(netlist, cubes, 0xF1ULL ^ scenario.seed);
        // The distinguishing patterns need their own good machine.
        const FaultSimulator local(netlist, distinguishing);
        std::vector<FaultResponse> partResponses;
        partResponses.reserve(scenario.components.size());
        for (const DefectComponent& comp : scenario.components) {
          switch (comp.kind) {
            case DefectKind::StuckAt: partResponses.push_back(local.simulate(comp.fault)); break;
            case DefectKind::Bridge:
              partResponses.push_back(local.simulateBridge(comp.bridge));
              break;
            case DefectKind::StuckOpen:
              partResponses.push_back(simulateOpen(local, comp.fault.gate));
              break;
          }
        }
        std::vector<const FaultResponse*> parts;
        parts.reserve(partResponses.size());
        for (const FaultResponse& r : partResponses) parts.push_back(&r);
        const FaultResponse mini = composeUnionResponse(parts);
        if (mini.failingCells.size() == topology_->numCells() &&
            topology_->collapseCells(mini.failingCells).test(pos)) {
          confirmed.set(pos);
          BitVector cleared(pendingMask.size());
          cleared.set(pos);
          pendingMask.andNot(cleared);
        }
      }
    }

    unresolvedLeft = pendingMask.count();
    // Cluster accounting over everything confirmed failing (refinement +
    // ATPG confirmations): maximal runs = isolated per-fault segments.
    clusters = 0;
    bool inRun = false;
    for (std::size_t p = 0; p < confirmed.size(); ++p) {
      const bool c = confirmed.test(p);
      if (c && !inRun) ++clusters;
      inRun = c;
    }
    if (unresolvedLeft > 0 || clusters > kMaxUnionFaults) degraded = true;
  }

  if (clusters > kMaxUnionFaults) out.confidence *= 0.5;
  if (unresolvedLeft > 0) out.confidence *= std::pow(0.97, static_cast<double>(unresolvedLeft));
  out.confidence = std::clamp(out.confidence, kConfidenceFloor, 1.0);

  out.candidates = std::move(candidates);
  out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  out.candidateCount = out.candidates.cellCount();
  out.resolved = !degraded;
  out.misdiagnosed = !response.failingCells.isSubsetOf(out.candidates.cells);
  if (degraded && !recoveryCounted) obs::count(obs::Counter::DegradedSupersets);
  return out;
}

DefectDiagnosis DefectZooPipeline::diagnoseIntermittent(const DefectScenario& scenario) const {
  const PreparedPartitionSet& prepared = base_.prepared();
  const std::vector<Partition>& partitions = prepared.partitions();
  const std::size_t numPartitions = partitions.size();
  const std::size_t samples = std::max<std::size_t>(1, policy_.intermittentSamples);

  DefectDiagnosis out;

  // Observe `samples` full schedules; each (attempt, partition) draws its own
  // replayable activation stream, exactly like a tester re-running sessions
  // against a flaky defect.
  GroupVerdicts all;
  all.failing.reserve(numPartitions * samples);
  std::vector<Partition> allPartitions;
  allPartitions.reserve(numPartitions * samples);
  GroupVerdicts firstSample;
  BitVector manifested(scenario.composed.failingCells.size());
  for (std::size_t attempt = 0; attempt < samples; ++attempt) {
    for (std::size_t p = 0; p < numPartitions; ++p) {
      const FaultResponse effective = effectiveResponse(scenario, attempt, p);
      manifested |= effective.failingCells;
      PartitionVerdictRow row = base_.engine().runPartition(prepared, p, effective);
      all.failing.push_back(std::move(row.failing));
      allPartitions.push_back(partitions[p]);
      if (attempt == 0) firstSample.failing.push_back(all.failing.back());
    }
  }
  out.actualCount = manifested.count();
  out.extraSessions = (samples - 1) * numPartitions * base_.config().groupsPerPartition;

  const CheckedAnalysis checked = base_.analyzer().analyzeChecked(partitions, firstSample);
  out.inconsistencies = checked.inconsistencies.size();

  // Intermittency starves the intersection (a pass no longer exonerates), so
  // even the union mode's per-cluster intersections are unsound — take the
  // superset floor across every observed session: a guaranteed superset of
  // everything that manifested, by construction (degrade-never-lie).
  const UnionAnalysis unions = base_.analyzer().analyzeUnion(allPartitions, all);
  if (unions.clusters > 1) {
    out.unionSplits = unions.clusters - 1;
    obs::count(obs::Counter::UnionSplits, out.unionSplits);
  }
  out.candidates = unions.supersetFloor;
  out.candidateCount = out.candidates.cellCount();
  out.resolved = false;
  obs::count(obs::Counter::DegradedSupersets);

  // Calibrated confidence: estimate the activation rate from group-verdict
  // stability across samples; the miss probability (an intermittent component
  // silent in every sample) bounds how much of the defect we can have seen.
  std::size_t everFailing = 0;
  double fractionSum = 0.0;
  for (std::size_t p = 0; p < numPartitions; ++p) {
    const std::size_t groups = all.failing[p].size();
    for (std::size_t g = 0; g < groups; ++g) {
      std::size_t fails = 0;
      for (std::size_t attempt = 0; attempt < samples; ++attempt) {
        if (all.failing[attempt * numPartitions + p].test(g)) ++fails;
      }
      if (fails > 0) {
        ++everFailing;
        fractionSum += static_cast<double>(fails) / static_cast<double>(samples);
      }
    }
  }
  const double activationEstimate = everFailing > 0 ? fractionSum / static_cast<double>(everFailing) : 0.0;
  const double missProbability = std::pow(1.0 - activationEstimate, static_cast<double>(samples));
  out.confidence = std::clamp((1.0 - missProbability) * 0.95, kConfidenceFloor, 0.95);

  out.misdiagnosed = manifested.size() == out.candidates.cells.size() &&
                             manifested.any()
                         ? !manifested.isSubsetOf(out.candidates.cells)
                         : false;
  return out;
}

FaultResponse DefectZooPipeline::effectiveResponse(const DefectScenario& scenario,
                                                   std::size_t attempt,
                                                   std::size_t partition) const {
  const std::size_t numPatterns = sim_->patterns().numPatterns();
  std::vector<FaultResponse> masked;
  masked.reserve(scenario.components.size());
  for (std::size_t i = 0; i < scenario.components.size(); ++i) {
    const DefectComponent& comp = scenario.components[i];
    if (!comp.intermittent()) continue;
    const BitVector activation = intermittentActivationMask(
        scenario.seed, scenario.index, i, attempt, partition, comp.activation, numPatterns);
    masked.push_back(maskResponse(comp.response, activation));
  }
  std::vector<const FaultResponse*> parts;
  parts.reserve(scenario.components.size());
  for (const DefectComponent& comp : scenario.components) {
    if (!comp.intermittent()) parts.push_back(&comp.response);
  }
  for (const FaultResponse& m : masked) parts.push_back(&m);
  return composeUnionResponse(parts);
}

DefectZooReport DefectZooPipeline::evaluate(const std::vector<DefectScenario>& scenarios,
                                            const RunControl& control) const {
  DefectZooReport report;
  const std::size_t n = scenarios.size();
  std::vector<DefectDiagnosis> slots(n);
  // Index-partitioned workers + index-ordered fold: bit-identical at every
  // thread count (diagnose() is thread-safe const — the shared FaultSimulator
  // is only read, never simulated on).
  globalPool().parallelFor(n, [&](std::size_t i) {
    control.throwIfStopped();
    slots[i] = diagnose(scenarios[i]);
  });

  DrAccumulator acc;
  double confidenceSum = 0.0;
  std::size_t misdiagnosed = 0;
  for (const DefectDiagnosis& d : slots) {
    acc.add(d.candidateCount, d.actualCount);
    confidenceSum += d.confidence;
    if (d.misdiagnosed) ++misdiagnosed;
    if (!d.resolved) ++report.degraded;
    report.totalInconsistencies += d.inconsistencies;
    report.totalUnionSplits += d.unionSplits;
    report.totalAtpgPatterns += d.atpgPatterns;
    report.totalExtraSessions += d.extraSessions;
  }
  report.scenarios = n;
  report.sumCandidates = acc.sumCandidates();
  report.sumActual = acc.sumActual();
  report.dr = acc.sumActual() > 0 ? acc.dr() : 0.0;
  report.misdiagnosisRate = n > 0 ? static_cast<double>(misdiagnosed) / static_cast<double>(n) : 0.0;
  report.meanConfidence = n > 0 ? confidenceSum / static_cast<double>(n) : 1.0;
  return report;
}

}  // namespace scandiag

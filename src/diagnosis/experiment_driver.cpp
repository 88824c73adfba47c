#include "diagnosis/experiment_driver.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {

SessionConfig sessionConfigFor(const DiagnosisConfig& config) {
  SessionConfig sc;
  sc.mode = config.mode;
  sc.numPatterns = config.numPatterns;
  sc.misrDegree = config.misrDegree;
  sc.computeSignatures = config.pruning;
  return sc;
}

namespace {

/// The group counts a fixed scheme can build on a chain of `chainLength`
/// positions: interval groups are nonempty runs, so at most one per position;
/// random-selection labels are r-bit fields of the selection LFSR, so a power
/// of two from 2 to 2^degree. Two-step needs both. The partitioners keep
/// their own checks; this one names the scheme, the group count and the
/// chain length before any of them runs.
void requireBuildableGroups(SchemeKind scheme, std::size_t groups, std::size_t chainLength) {
  const bool intervals = scheme != SchemeKind::RandomSelection;
  const bool labels = scheme == SchemeKind::RandomSelection || scheme == SchemeKind::TwoStep;
  const std::size_t maxLabels = std::size_t{1} << RandomSelectionConfig{}.lfsr.degree;
  const bool intervalsFit = groups >= 1 && groups <= chainLength;
  const bool labelsFit = groups >= 2 && groups <= maxLabels && std::has_single_bit(groups);
  if ((!intervals || intervalsFit) && (!labels || labelsFit)) return;
  const bool chainBound = intervals && (!labels || chainLength <= maxLabels);
  const std::string most = chainBound ? "the chain length" : std::to_string(maxLabels);
  const std::string rule = labels ? "a power of two from 2 to " + most : "from 1 to " + most;
  throw std::invalid_argument(schemeName(scheme) + " cannot split a chain of length " +
                              std::to_string(chainLength) + " into " + std::to_string(groups) +
                              " groups (the group count must be " + rule + ")");
}

}  // namespace

std::vector<Partition> buildPartitions(const DiagnosisConfig& config, std::size_t chainLength) {
  // An empty schedule runs no session, so checked analysis would read it as
  // "nothing failed" and exonerate every cell.
  SCANDIAG_REQUIRE(config.numPartitions >= 1,
                   "a partition schedule needs at least one partition");
  if (config.scheme != SchemeKind::Adaptive) {
    requireBuildableGroups(config.scheme, config.groupsPerPartition, chainLength);
  }
  auto scheme =
      makeScheme(config.scheme, config.schemeConfig, chainLength, config.groupsPerPartition);
  return takePartitions(*scheme, config.numPartitions);
}

DiagnosisPipeline::DiagnosisPipeline(const ScanTopology& topology, const DiagnosisConfig& config)
    : topology_(&topology),
      config_(config),
      prepared_(config.scheme == SchemeKind::Adaptive
                    ? PreparedPartitionSet{}
                    : PreparedPartitionSet(buildPartitions(config, topology.maxChainLength()))),
      engine_(topology, sessionConfigFor(config)),
      analyzer_(topology),
      pruner_(topology) {
  if (config.scheme == SchemeKind::Adaptive) {
    adaptive_ = std::make_unique<AdaptivePlanner>(topology, config);
  }
}

DiagnosisPipeline::~DiagnosisPipeline() = default;

FaultDiagnosis DiagnosisPipeline::diagnose(const FaultResponse& response,
                                           SessionBatchScratch* scratch,
                                           std::uint64_t* verdictDigest) const {
  obs::count(obs::Counter::FaultsDiagnosed);
  FaultDiagnosis out;
  out.actualCount = response.failingCellCount();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto digestRow = [&digest](const BitVector& row) {
    for (std::size_t w = 0; w < row.wordCount(); ++w) digest = fnv1a64(row.word(w), digest);
  };
  if (adaptive_) {
    AdaptiveOutcome outcome = adaptive_->run(response);
    if (verdictDigest) {
      // The *realized* schedule: which pool candidate each step picked, plus
      // its verdict row — a resumed run replays the same greedy trajectory
      // or the digest mismatch flags it.
      for (std::size_t s = 0; s < outcome.chosen.size(); ++s) {
        digest = fnv1a64(static_cast<std::uint64_t>(outcome.chosen[s]), digest);
        digestRow(outcome.verdicts.failing[s]);
      }
    }
    out.candidates = std::move(outcome.candidates);
  } else {
    const GroupVerdicts verdicts = engine_.run(prepared_, response, scratch);
    if (verdictDigest) {
      for (const BitVector& row : verdicts.failing) digestRow(row);
    }
    // Pruning works on the selection axis too, so cells are expanded once.
    out.candidates.positions = analyzer_.intersect(prepared_.partitions(), verdicts);
    if (config_.pruning) pruner_.prunePositions(prepared_, verdicts, out.candidates.positions);
    out.candidates.cells = topology_->expandPositions(out.candidates.positions);
  }
  if (verdictDigest) *verdictDigest = digest;
  out.candidateCount = out.candidates.cellCount();
  return out;
}

DrReport DiagnosisPipeline::evaluate(const std::vector<FaultResponse>& responses,
                                     const RunControl& control) const {
  return evaluateWithCheckpointRange(*this, responses, /*sink=*/nullptr, /*sweepId=*/0, 0,
                                     responses.size(), control);
}

std::vector<double> DiagnosisPipeline::evaluateSweep(
    const std::vector<FaultResponse>& responses, const RunControl& control) const {
  if (adaptive_) {
    // Anytime curve of the greedy trajectory: prefix p is the candidate count
    // once the cumulative session spend reaches (p+1) * groupsPerPartition —
    // the same tester-time grid the fixed schemes' prefixes sit on. One run
    // per fault serves every prefix (the trajectory does not depend on where
    // it will be cut; candidates are never filtered by remaining budget
    // within a step).
    const std::size_t prefixes = config_.numPartitions;
    const std::size_t sessionsPerPrefix = config_.groupsPerPartition;
    const std::size_t allCells = topology_->numCells();
    std::vector<std::vector<std::size_t>> prefixCandidates(responses.size());
    globalPool().parallelForRange(responses.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const FaultResponse& r = responses[i];
        if (!r.detected()) continue;
        control.throwIfStopped();
        obs::count(obs::Counter::FaultsDiagnosed);
        const AdaptiveOutcome outcome = adaptive_->run(r);
        std::vector<std::size_t>& counts = prefixCandidates[i];
        counts.reserve(prefixes);
        std::size_t step = 0;
        std::size_t current = allCells;
        for (std::size_t p = 0; p < prefixes; ++p) {
          const std::size_t budget = (p + 1) * sessionsPerPrefix;
          while (step < outcome.steps.size() &&
                 outcome.steps[step].cumulativeSessions <= budget) {
            current = outcome.steps[step].survivorCells;
            ++step;
          }
          counts.push_back(current);
        }
      }
    });
    std::vector<DrAccumulator> acc(prefixes);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].detected()) continue;
      const std::size_t actual = responses[i].failingCellCount();
      for (std::size_t p = 0; p < prefixes; ++p) acc[p].add(prefixCandidates[i][p], actual);
    }
    std::vector<double> dr;
    dr.reserve(acc.size());
    for (const DrAccumulator& a : acc) dr.push_back(a.dr());
    return dr;
  }
  const std::size_t length = topology_->maxChainLength();
  // Per fault, the candidate count after each partition prefix; reduced into
  // the per-prefix accumulators in fault-index order below (same ordered-
  // reduction contract as evaluate()).
  std::vector<std::vector<std::size_t>> prefixCandidates(responses.size());
  const std::vector<Partition>& partitions = prepared_.partitions();
  // Same per-worker-chunk scratch discipline as evaluate().
  globalPool().parallelForRange(responses.size(), [&](std::size_t begin, std::size_t end) {
    SessionBatchScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const FaultResponse& r = responses[i];
      if (!r.detected()) continue;
      control.throwIfStopped();
      obs::count(obs::Counter::FaultsDiagnosed);
      const GroupVerdicts verdicts = engine_.run(prepared_, r, &scratch);
      LiveIntersection live(length);
      std::vector<std::size_t>& counts = prefixCandidates[i];
      counts.reserve(partitions.size());
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        live.step(partitions[p], verdicts.failing[p]);
        counts.push_back(topology_->expandPositions(live.positions()).count());
      }
    }
  });
  std::vector<DrAccumulator> acc(partitions.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].detected()) continue;
    const std::size_t actual = responses[i].failingCellCount();
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      acc[p].add(prefixCandidates[i][p], actual);
    }
  }
  std::vector<double> dr;
  dr.reserve(acc.size());
  for (const DrAccumulator& a : acc) dr.push_back(a.dr());
  return dr;
}

CircuitWorkload prepareWorkload(const Netlist& netlist, const WorkloadConfig& config,
                                std::size_t numChains) {
  SCANDIAG_REQUIRE(!netlist.dffs().empty(), "workload circuit has no scan cells");
  const PatternSet patterns = generatePatterns(netlist, config.numPatterns, config.prpg);
  const FaultSimulator sim(netlist, patterns);
  const FaultList universe = FaultList::enumerateCollapsed(netlist);
  // Oversample: random patterns typically detect 60-95% of stuck-at faults,
  // so 4x candidates nearly always yields the full target of detected faults.
  const std::vector<FaultSite> candidates =
      universe.sample(std::min(universe.size(), config.numFaults * 4), config.faultSeed);

  CircuitWorkload out;
  out.topology =
      ScanTopology::blockChains(netlist.dffs().size(), std::max<std::size_t>(numChains, 1));
  out.responses = sim.collectDetected(candidates, config.numFaults);
  return out;
}

}  // namespace scandiag

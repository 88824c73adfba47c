#include "diagnosis/planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace scandiag {

std::size_t recommendGroupCount(std::size_t chainLength) {
  SCANDIAG_REQUIRE(chainLength >= 1, "empty chain");
  const double ideal = std::sqrt(static_cast<double>(chainLength));
  const double exponent = std::round(std::log2(std::max(ideal, 2.0)));
  const std::size_t pow2 = std::size_t{1} << static_cast<unsigned>(exponent);
  // min(max(pow2, 2), min(64, chainLength)), written without std::clamp: for
  // chainLength 1 the upper bound (1) is below the lower bound (2), which is
  // undefined behavior for clamp — the chain-length cap must win, yielding
  // the single degenerate group a one-cell chain admits.
  const std::size_t cap = std::min<std::size_t>(64, chainLength);
  return std::min(std::max<std::size_t>(pow2, 2), cap);
}

PlanResult planDiagnosis(const ScanTopology& topology,
                         const std::vector<FaultResponse>& sample,
                         const PlanRequest& request) {
  SCANDIAG_REQUIRE(!sample.empty(), "planner needs a calibration sample");
  SCANDIAG_REQUIRE(request.maxPartitions >= 1, "need at least one partition");

  // At most one group per chain position, as recommendGroupCount caps it: a
  // chain too short for 4 groups gets 2, a one-cell chain its single group.
  const std::size_t maxGroups = topology.maxChainLength();
  std::vector<std::size_t> groups;
  for (std::size_t g : {4u, 8u, 16u, 32u, 64u}) {
    if (g <= maxGroups) groups.push_back(g);
  }
  if (groups.empty()) groups.push_back(std::min<std::size_t>(2, maxGroups));

  PlanResult best;
  for (std::size_t g : groups) {
    DiagnosisConfig config;
    config.scheme = request.scheme;
    config.numPartitions = request.maxPartitions;
    config.groupsPerPartition = g;
    config.numPatterns = request.numPatterns;
    const DiagnosisPipeline pipeline(topology, config);
    const std::vector<double> sweep = pipeline.evaluateSweep(sample);
    for (std::size_t p = 0; p < sweep.size(); ++p) {
      if (sweep[p] > request.targetDr) continue;
      // Cost of the *chosen* plan: p + 1 partitions, not the maxPartitions
      // budget the sweep pipeline was built with. config.numPartitions is set
      // before the copy so the reported cost and config can never diverge.
      const DiagnosisCost cost = partitionRunCost(p + 1, g, request.numPatterns,
                                                  topology.maxChainLength());
      const bool better =
          !best.feasible || cost.sessions < best.cost.sessions ||
          (cost.sessions == best.cost.sessions && cost.clockCycles < best.cost.clockCycles);
      if (better) {
        best.feasible = true;
        config.numPartitions = p + 1;
        best.config = config;
        best.achievedDr = sweep[p];
        best.cost = cost;
      }
      break;  // first partition count reaching the target is the cheapest for this g
    }
  }
  return best;
}

}  // namespace scandiag

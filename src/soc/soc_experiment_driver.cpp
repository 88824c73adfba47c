#include "soc/soc_experiment_driver.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "bist/prpg.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {

std::vector<FaultResponse> socResponsesForFailingCore(const Soc& soc, std::size_t coreIndex,
                                                      const WorkloadConfig& config) {
  SCANDIAG_REQUIRE(coreIndex < soc.coreCount(), "core index out of range");
  const CoreInstance& core = soc.core(coreIndex);

  WorkloadConfig local = config;
  local.prpg.seed = config.prpg.seed ^ (0x9e3779b97f4a7c15ULL * (coreIndex + 1));
  local.faultSeed = config.faultSeed ^ (0xc2b2ae3d27d4eb4fULL * (coreIndex + 1));

  const PatternSet patterns = generatePatterns(*core.netlist, local.numPatterns, local.prpg);
  const FaultSimulator sim(*core.netlist, patterns);
  const FaultList universe = FaultList::enumerateCollapsed(*core.netlist);
  const std::vector<FaultSite> candidates =
      universe.sample(std::min(universe.size(), local.numFaults * 4), local.faultSeed);
  std::vector<FaultResponse> responses = sim.collectDetected(candidates, local.numFaults);

  // Lift local DFF ordinals to global cell ids.
  const std::size_t total = soc.totalCells();
  for (FaultResponse& r : responses) {
    BitVector global(total);
    for (std::size_t& ord : r.failingCellOrdinals) {
      ord += core.cellOffset;
      global.set(ord);
    }
    r.failingCells = std::move(global);
  }
  return responses;
}

std::vector<FaultResponse> socResponsesForFailingCores(
    const Soc& soc, const std::vector<std::size_t>& coreIndices, const WorkloadConfig& config) {
  SCANDIAG_REQUIRE(!coreIndices.empty(), "need at least one failing core");
  std::vector<std::vector<FaultResponse>> perCore;
  std::size_t count = static_cast<std::size_t>(-1);
  for (std::size_t k : coreIndices) {
    perCore.push_back(socResponsesForFailingCore(soc, k, config));
    count = std::min(count, perCore.back().size());
  }
  std::vector<FaultResponse> combined;
  combined.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FaultResponse merged = perCore[0][i];
    for (std::size_t c = 1; c < perCore.size(); ++c) {
      const FaultResponse& other = perCore[c][i];
      merged.failingCells |= other.failingCells;
      merged.failingCellOrdinals.insert(merged.failingCellOrdinals.end(),
                                        other.failingCellOrdinals.begin(),
                                        other.failingCellOrdinals.end());
      merged.errorStreams.insert(merged.errorStreams.end(), other.errorStreams.begin(),
                                 other.errorStreams.end());
    }
    combined.push_back(std::move(merged));
  }
  return combined;
}

std::uint64_t socSweepIdFor(const DiagnosisConfig& config, std::size_t coreIndex) {
  return setupDigestPiece("core", coreIndex, sweepIdFor(config));
}

std::vector<SocDrRow> evaluateSocDr(const Soc& soc, const WorkloadConfig& workload,
                                    const DiagnosisConfig& config,
                                    const RunControl& control,
                                    SweepCheckpoint* checkpoint) {
  // Cores are independent experiments (each derives its own seeds from the
  // core index) of very different sizes: one lane per pool thread claims
  // them largest netlist first into per-core row slots, and the nested
  // pipeline.evaluate() runs inline on the lane (thread_pool nested-use
  // guard). Which lane runs core k varies; row k never does.
  const DiagnosisPipeline pipeline(soc.topology(), config);
  std::vector<std::size_t> order(soc.coreCount());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return soc.core(a).netlist->gateCount() > soc.core(b).netlist->gateCount();
  });
  std::vector<SocDrRow> rows(soc.coreCount());
  std::atomic<std::size_t> next{0};
  globalPool().parallelFor(globalPool().threadCount(), [&](std::size_t) {
    try {
      for (std::size_t i = next++; i < order.size(); i = next++) {
        const std::size_t k = order[i];
        control.throwIfStopped();
        const auto responses = socResponsesForFailingCore(soc, k, workload);
        rows[k] = SocDrRow{soc.core(k).name,
                           evaluateWithCheckpoint(pipeline, responses, checkpoint,
                                                  socSweepIdFor(config, k), control)};
      }
    } catch (...) {
      next = order.size();  // the other lanes stop claiming
      throw;
    }
  });
  return rows;
}

}  // namespace scandiag

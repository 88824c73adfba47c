#include "core/diagnoser.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {

Diagnoser::Diagnoser(Netlist netlist, DiagnoserOptions options)
    : netlist_(std::move(netlist)),
      options_(std::move(options)),
      topology_(ScanTopology::blockChains(netlist_.dffs().size(),
                                          std::max<std::size_t>(options_.numChains, 1))),
      pipeline_(topology_, options_.diagnosis),
      patterns_(generatePatterns(netlist_, options_.diagnosis.numPatterns)),
      faultSim_(netlist_, patterns_) {}

const std::vector<Partition>& Diagnoser::partitions() const { return pipeline_.partitions(); }

std::size_t Diagnoser::sessionCount() const {
  return options_.diagnosis.numPartitions * options_.diagnosis.groupsPerPartition;
}

Diagnoser::Result Diagnoser::diagnoseInjectedFault(const FaultSite& fault) const {
  const FaultResponse response = faultSim_.simulate(fault);
  Result result;
  result.detected = response.detected();
  result.actualFailingCells = response.failingCells.toIndices();
  if (!result.detected) return result;
  const FaultDiagnosis d = pipeline_.diagnose(response);
  result.candidateCells = d.candidates.cells.toIndices();
  return result;
}

const std::string& Diagnoser::cellName(std::size_t cell) const {
  SCANDIAG_REQUIRE(cell < netlist_.dffs().size(), "cell ordinal out of range");
  return netlist_.gateName(netlist_.dffs()[cell]);
}

DrReport Diagnoser::evaluateResolution(std::size_t numFaults, std::uint64_t seed,
                                       const RunControl& control,
                                       SweepCheckpoint* checkpoint) const {
  const FaultList universe = FaultList::enumerateCollapsed(netlist_);
  const std::vector<FaultSite> candidates =
      universe.sample(std::min(universe.size(), numFaults * 4), seed);
  const std::vector<FaultResponse> responses = faultSim_.collectDetected(candidates, numFaults);
  return evaluateWithCheckpoint(pipeline_, responses, checkpoint,
                                sweepIdFor(options_.diagnosis), control);
}

}  // namespace scandiag

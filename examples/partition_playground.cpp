// Partition playground — the paper's Figure 3 scenario, interactively.
//
// Injects one stuck-at fault into s953, runs ONE partition of each kind
// (interval-based vs random-selection, 4 groups) and prints the group
// contents, which groups failed, and the resulting candidate sets. The point
// the figure makes: the fault's failing cells are *clustered*, so the
// interval partition confines them to one or two groups while the random
// partition scatters them — and every scattered group drags all its innocent
// cells into the candidate set.
//
// Usage: partition_playground [fault-index]

#include <cstdio>
#include <cstdlib>

#include "core/scandiag.hpp"

using namespace scandiag;

namespace {

void showPartition(const char* title, const Partition& partition,
                   const GroupVerdicts& verdicts, const CandidateSet& candidates,
                   const FaultResponse& response) {
  std::printf("%s\n", title);
  for (std::size_t g = 0; g < partition.groupCount(); ++g) {
    std::printf("  group %zu [%s]:", g, verdicts.failing[0].test(g) ? "FAIL" : "pass");
    for (std::size_t pos : partition.groups[g].toIndices()) std::printf(" %zu", pos);
    std::printf("\n");
  }
  std::printf("  -> %zu candidate failing cells (actual: %zu)\n\n",
              candidates.cellCount(), response.failingCellCount());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t faultIndex = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;

  const Netlist nl = generateNamedCircuit("s953");
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  const PatternSet patterns = generatePatterns(nl, 200);
  const FaultSimulator sim(nl, patterns);

  // Pick the faultIndex-th detected multi-cell fault, like the figure's
  // "single stuck-at fault ... two failing scan cells".
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  FaultResponse response;
  std::size_t seen = 0;
  for (const FaultSite& f : universe.sample(universe.size(), 0xFA17)) {
    FaultResponse r = sim.simulate(f);
    if (r.failingCellCount() >= 2 && seen++ == faultIndex) {
      response = std::move(r);
      break;
    }
  }
  if (!response.detected()) {
    std::printf("no suitable fault found\n");
    return 1;
  }

  std::printf("fault: %s\n", describeFault(nl, response.fault).c_str());
  std::printf("true failing scan cells:");
  for (std::size_t c : response.failingCells.toIndices()) std::printf(" %zu", c);
  std::printf("  (chain of %zu cells)\n\n", topology.numCells());

  const SessionConfig sessionConfig{SignatureMode::Exact, 200};
  const SessionEngine engine(topology, sessionConfig);
  const CandidateAnalyzer analyzer(topology);

  // One interval-based partition, on the selector hardware's LFSR and seed.
  IntervalPartitioner interval(IntervalPartitionerConfig{}, topology.maxChainLength(), 4);
  const std::vector<Partition> ip{interval.next()};
  const GroupVerdicts iv = engine.run(ip, response);
  showPartition("interval-based partitioning (4 groups):", ip[0], iv,
                analyzer.analyze(ip, iv), response);

  // One random-selection partition, on the selector hardware's LFSR and seed.
  RandomSelectionPartitioner random(RandomSelectionConfig{}, topology.maxChainLength(), 4);
  const std::vector<Partition> rp{random.next()};
  const GroupVerdicts rv = engine.run(rp, response);
  showPartition("random-selection partitioning (4 groups):", rp[0], rv,
                analyzer.analyze(rp, rv), response);

  return 0;
}

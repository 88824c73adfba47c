// Extension — diagnosis under two-line bridging faults.
//
// A bridge's failing cells come from the union of TWO fault cones: either
// two disjoint clusters (paper Fig. 2(a)) or one widened cluster (Fig. 2(b)).
// This is the hardest realistic stress of the clustering assumption behind
// interval-based partitioning, and the paper's own multiple-fault argument
// ("the fault cones may either be non-overlapping ... or overlapped") — here
// measured instead of argued.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main() {
  banner("Extension: bridging faults (wired-AND/OR + dominant, feedback-free pairs)",
         "two-cone failures = paper Fig. 2; two-step's edge persists, reduced vs stuck-at");

  BenchReport report("ext_bridging");
  const Netlist nl = generateNamedCircuit("s9234");
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  report.context("circuit", "s9234");

  // Detected bridge responses (same 500-target protocol as the tables).
  std::vector<FaultResponse> responses;
  double meanFailing = 0, meanSpan = 0;
  for (const BridgeFault& bridge : enumerateBridgeCandidates(nl, 2500, 0xB71D)) {
    FaultResponse r = sim.simulateBridge(bridge);
    if (!r.detected()) continue;
    meanFailing += static_cast<double>(r.failingCellCount());
    const auto cells = r.failingCells.toIndices();
    meanSpan += static_cast<double>(cells.back() - cells.front() + 1) /
                static_cast<double>(nl.dffs().size());
    responses.push_back(std::move(r));
    if (responses.size() >= 500) break;
  }
  row("s9234: %zu detected bridges, mean %.1f failing cells, mean span %.2f of chain",
      responses.size(), meanFailing / static_cast<double>(responses.size()),
      meanSpan / static_cast<double>(responses.size()));
  row("");

  row("%-16s %16s %16s %8s", "fault model", "DR(random-sel)", "DR(two-step)", "gain");
  // Stuck-at reference row on the same circuit/budget.
  {
    const CircuitWorkload work = prepareWorkload(nl, presets::table2Workload());
    double dr[2];
    int i = 0;
    for (SchemeKind scheme : {SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
      const DiagnosisPipeline pipeline(work.topology, presets::table2(scheme, false));
      dr[i++] = pipeline.evaluate(work.responses).dr;
    }
    row("%-16s %16.3f %16.3f %7sx", "stuck-at", dr[0], dr[1],
        improvement(dr[0], dr[1]).c_str());
    report.row({{"fault_model", "stuck-at"}, {"dr_random", dr[0]}, {"dr_two_step", dr[1]}});
  }
  {
    double dr[2];
    int i = 0;
    for (SchemeKind scheme : {SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
      const DiagnosisPipeline pipeline(topology, presets::table2(scheme, false));
      dr[i++] = pipeline.evaluate(responses).dr;
    }
    row("%-16s %16.3f %16.3f %7sx", "bridging", dr[0], dr[1],
        improvement(dr[0], dr[1]).c_str());
    report.row({{"fault_model", "bridging"}, {"dr_random", dr[0]}, {"dr_two_step", dr[1]}});
  }
  report.write();
  return 0;
}

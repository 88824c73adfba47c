// Diagnoser — the one-stop public API.
//
// Binds a full-scan circuit to a complete scan-BIST diagnosis setup (scan
// stitching, PRPG, partition scheme, session/signature model, pruning) and
// answers the question the paper poses: *which scan cells captured errors?*
//
//   Netlist circuit = parseBenchFile("s953.bench");   // or generateNamedCircuit
//   Diagnoser diag(circuit, {});                      // defaults: two-step
//   auto result = diag.diagnoseInjectedFault({gate, FaultSite::kOutputPin, true});
//   // result.candidateCells ⊇ result.actualFailingCells (exact mode)
//
// For evaluation, evaluateResolution() reproduces the paper's DR metric over
// a deterministic sample of stuck-at faults.
#pragma once

#include <memory>
#include <optional>

#include "core/experiment_config.hpp"
#include "diagnosis/checkpoint.hpp"
#include "diagnosis/experiment_driver.hpp"

namespace scandiag {

struct DiagnoserOptions {
  DiagnosisConfig diagnosis{};
  /// Number of internal scan chains the DFFs are stitched into.
  std::size_t numChains = 1;
};

class Diagnoser {
 public:
  /// Copies `netlist`; the Diagnoser is self-contained afterwards.
  Diagnoser(Netlist netlist, DiagnoserOptions options = {});

  const Netlist& netlist() const { return netlist_; }
  const ScanTopology& topology() const { return topology_; }
  const std::vector<Partition>& partitions() const;
  const DiagnoserOptions& options() const { return options_; }

  /// Total BIST sessions a full diagnosis run costs (partitions x groups) —
  /// the paper's diagnosis-time proxy.
  std::size_t sessionCount() const;

  struct Result {
    std::vector<std::size_t> candidateCells;       // DFF ordinals, ascending
    std::vector<std::size_t> actualFailingCells;   // ground truth (simulation)
    bool detected = false;

    /// candidates == actual (perfect resolution)?
    bool exact() const { return candidateCells == actualFailingCells; }
  };

  /// Simulates the fault on the DUT model and runs the full multi-session
  /// diagnosis on the (virtual) tester responses.
  Result diagnoseInjectedFault(const FaultSite& fault) const;

  /// Scan-cell name (the DFF's netlist name) for a cell ordinal.
  const std::string& cellName(std::size_t cell) const;

  /// DR over `numFaults` detected faults sampled with `seed`. `control` is
  /// polled at fault granularity (inert by default); `checkpoint` — when
  /// non-null — journals/replays completed faults so a killed run resumes
  /// bit-identically (see diagnosis/checkpoint.hpp).
  DrReport evaluateResolution(std::size_t numFaults, std::uint64_t seed = 0xFA17,
                              const RunControl& control = {},
                              SweepCheckpoint* checkpoint = nullptr) const;

 private:
  Netlist netlist_;
  DiagnoserOptions options_;
  ScanTopology topology_;
  // Before the simulator, so a schedule the scheme cannot build on this
  // topology is refused before any simulation.
  DiagnosisPipeline pipeline_;
  PatternSet patterns_;
  FaultSimulator faultSim_;
};

}  // namespace scandiag

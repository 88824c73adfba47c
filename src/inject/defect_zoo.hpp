// Defect zoo: k-fault union scenarios and robust multi-defect diagnosis.
//
// The paper's pipeline — and every diagnosis experiment before this layer —
// assumes exactly one permanent stuck-at fault per sweep. Real silicon
// violates that model with multi-site defects, and this module makes the
// violations first-class:
//
//  * **Scenarios** compose k simultaneous defects drawn from four models:
//    stuck-at faults, two-line bridges (src/sim/bridge_faults), stuck-opens
//    (src/sim/open_faults), and intermittents (a component active per pattern
//    with probability p). Every component is simulated alone on
//    FaultSimulator's cone-restricted fast path, and the scenario's observed
//    response is the *union overlay*: the OR of the per-component error
//    streams. (The overlay is the standard fault-union model — single-fault
//    superposition, ignoring inter-fault masking; the MISR-linearity
//    property test pins down exactly where it is exact.)
//  * **Intermittents** follow VerdictCorruptor's reproducibility contract:
//    the per-pattern activation mask is a pure function of
//    (seed, scenario, component, attempt, partition), so every re-run of a
//    partition draws an independent but replayable stream.
//  * **Diagnosis** (DefectZooPipeline) layers the checked union mode and
//    recovery short-circuit (src/diagnosis/recovery) under an active
//    refinement stage (src/diagnosis/union_diagnoser) and a PODEM stall
//    breaker, with the degrade-never-lie contract throughout: when k
//    exceeds the resolvable budget or intermittency starves the majority
//    vote, the result is a guaranteed-superset candidate set with a
//    calibrated confidence — never an error, never an exonerated true
//    failing cell. PODEM distinguishing patterns can only *confirm*
//    candidates (cheaply, one mini-session per stalled position); they never
//    exonerate, because a targeted pattern pair cannot prove an upstream
//    defect silent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/recovery.hpp"
#include "diagnosis/union_diagnoser.hpp"
#include "sim/bridge_faults.hpp"

namespace scandiag {

class PodemAtpg;

enum class DefectKind : std::uint8_t {
  StuckAt,
  Bridge,
  StuckOpen,
};

/// Parsed form of the CLI's `--defects k[,bridge][,open][,intermittent:p]`.
struct DefectMix {
  /// Simultaneous defects per scenario.
  std::size_t k = 2;
  /// Include bridge / stuck-open components in the draw pool (stuck-at is
  /// always in the pool).
  bool bridges = false;
  bool opens = false;
  /// > 0: alternate components are intermittent with this per-pattern
  /// activation probability (component 0 is always intermittent, so every
  /// scenario of an intermittent mix exercises the degradation path).
  double intermittentP = 0.0;
  std::uint64_t seed = 0xDEFEC7;
};

/// Parses "k[,bridge][,open][,intermittent:p][,seed:n]" (e.g. "2,bridge,open"
/// or "3,intermittent:0.5"). k and n follow parseUnsigned, p parseReal
/// (common/errors.hpp). Throws std::invalid_argument with a message suitable
/// for stderr on malformed input.
DefectMix parseDefectSpec(const std::string& spec);
std::string describeDefectMix(const DefectMix& mix);

struct DefectComponent {
  DefectKind kind = DefectKind::StuckAt;
  FaultSite fault{};     // StuckAt / StuckOpen site (opens: output fault site)
  BridgeFault bridge{};  // kind == Bridge only
  /// Per-pattern activation probability; 1.0 = permanent.
  double activation = 1.0;
  /// The component's full (permanent, unmasked) response.
  FaultResponse response;

  bool intermittent() const { return activation < 1.0; }
};

struct DefectScenario {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::vector<DefectComponent> components;
  /// Union overlay of the components' permanent responses: every cell the
  /// defect set can manifest on, with the OR'd error streams.
  FaultResponse composed;

  std::size_t k() const { return components.size(); }
  bool intermittent() const;
};

/// OR-composition of per-component responses (the union overlay).
FaultResponse composeUnionResponse(const std::vector<const FaultResponse*>& parts);

/// Replayable per-pattern activation mask for one intermittent component:
/// a pure function of its arguments (same contract as VerdictCorruptor's
/// noise streams), bit t set iff the component is active during pattern t.
BitVector intermittentActivationMask(std::uint64_t seed, std::size_t scenario,
                                     std::size_t component, std::size_t attempt,
                                     std::size_t partition, double p,
                                     std::size_t numPatterns);

/// `response` with every error stream masked to the active patterns;
/// cells whose masked stream is empty are dropped.
FaultResponse maskResponse(const FaultResponse& response, const BitVector& activation);

/// Draws deterministic scenarios from a fault simulator's circuit. The
/// simulator reference must outlive the generator. Construction reads only
/// the netlist (its cached collapsed universe, its fanouts for the bridge
/// feedback check), so on a validated netlist it needs no simulator lock; it
/// throws std::invalid_argument when k exceeds the circuit's gate count.
/// generate() calls simulate() and therefore follows FaultSimulator's
/// one-thread-at-a-time ownership rule — generate scenarios serially,
/// diagnose them in parallel.
class DefectScenarioGenerator {
 public:
  DefectScenarioGenerator(const FaultSimulator& simulator, const DefectMix& mix);

  /// Scenario `index`, deterministic per (mix.seed, index); every component
  /// is detected (nonempty permanent response) and sites are distinct.
  /// Throws std::invalid_argument, naming the spec, k and `index`, when the
  /// circuit has too few detected sites left to draw a component.
  DefectScenario generate(std::size_t index) const;

 private:
  const FaultSimulator* sim_;
  DefectMix mix_;
  std::shared_ptr<const std::vector<FaultSite>> stuckPool_;  // the netlist's collapsed universe
  std::vector<BridgeFault> bridgePool_;
  std::vector<GateId> openPool_;
};

struct DefectPolicy {
  /// Recovery budget for the detection → retry → union short-circuit ladder.
  RetryPolicy retry{/*maxRetriesPerSession=*/2, /*sessionBudget=*/256};
  /// Active-refinement interval sessions per scenario (0 disables).
  std::size_t refineSessionBudget = 96;
  /// PODEM mini-sessions per scenario when refinement stalls (0 disables).
  std::size_t atpgSessionBudget = 16;
  /// Full-schedule samples for intermittent scenarios (>= 1).
  std::size_t intermittentSamples = 3;
};

struct DefectDiagnosis {
  CandidateSet candidates;
  std::size_t candidateCount = 0;
  /// Permanent scenarios: composed failing cells. Intermittent scenarios:
  /// cells that actually manifested in the observed (masked) sessions.
  std::size_t actualCount = 0;
  /// Ground truth: some true failing cell missing from the candidates — the
  /// violation the degrade-never-lie contract forbids.
  bool misdiagnosed = false;
  /// False = superset-only answer (CLI exit code 8): refinement incomplete,
  /// union clusters over budget, or intermittency degradation.
  bool resolved = true;
  double confidence = 1.0;
  std::size_t inconsistencies = 0;
  std::size_t unionSplits = 0;
  std::size_t atpgPatterns = 0;
  /// Sessions beyond the base schedule (retries + refinement + ATPG).
  std::size_t extraSessions = 0;
};

struct DefectZooReport {
  double dr = 0.0;
  std::size_t scenarios = 0;
  std::uint64_t sumCandidates = 0;
  std::uint64_t sumActual = 0;
  double misdiagnosisRate = 0.0;
  double meanConfidence = 1.0;
  /// Scenarios answered superset-only (resolved == false).
  std::size_t degraded = 0;
  std::size_t totalInconsistencies = 0;
  std::size_t totalUnionSplits = 0;
  std::size_t totalAtpgPatterns = 0;
  std::size_t totalExtraSessions = 0;
};

class DefectZooPipeline {
 public:
  /// `simulator` must outlive the pipeline (PODEM and the ADI prior read its
  /// netlist and good captures). The diagnosis config must use a fixed
  /// scheme (not Adaptive).
  DefectZooPipeline(const FaultSimulator& simulator, const ScanTopology& topology,
                    const DiagnosisConfig& config, const DefectPolicy& policy);
  ~DefectZooPipeline();
  DefectZooPipeline(DefectZooPipeline&&) = default;

  const DiagnosisPipeline& base() const { return base_; }

  /// One scenario through detection → union analysis → refinement → PODEM →
  /// degradation. Thread-safe const (parallel evaluate workers share it).
  DefectDiagnosis diagnose(const DefectScenario& scenario) const;

  /// Diagnoses `scenarios`; bit-identical at every thread count. `control`
  /// is polled between scenarios; a trip unwinds as OperationCancelled.
  DefectZooReport evaluate(const std::vector<DefectScenario>& scenarios,
                           const RunControl& control = {}) const;

 private:
  DefectDiagnosis diagnosePermanent(const DefectScenario& scenario) const;
  DefectDiagnosis diagnoseIntermittent(const DefectScenario& scenario) const;
  /// Composed response a tester observing (attempt, partition) would see:
  /// permanent components plus activation-masked intermittent components.
  FaultResponse effectiveResponse(const DefectScenario& scenario, std::size_t attempt,
                                  std::size_t partition) const;

  const FaultSimulator* sim_;
  const ScanTopology* topology_;
  DiagnosisPipeline base_;
  DiagnosisRecovery recovery_;
  UnionDiagnoser refiner_;
  DefectPolicy policy_;
  std::vector<double> adiPrior_;
  std::unique_ptr<PodemAtpg> atpg_;
};

}  // namespace scandiag

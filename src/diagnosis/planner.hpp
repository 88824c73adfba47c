// Diagnosis planning: choosing the partition budget before testing.
//
// The paper picks groups-per-partition by hand per experiment ("our strategy
// is to use more groups on the longer meta scan chains", §5) and shows via
// Fig. 5 that the partition count to a target DR is the real diagnosis-time
// knob. This module makes both executable:
//
//  * recommendGroupCount(): the rule-of-thumb — groups ≈ sqrt(chain length),
//    rounded to a power of two (the label is a bit field), clamped to the
//    paper's practical range. Reproduces the paper's own choices (s953 → 4,
//    Table 2 chains → 16, SOC-1 → 32..64).
//  * planDiagnosis(): empirical calibration — evaluate candidate (groups,
//    partitions) configurations against a sample of fault responses and pick
//    the cheapest (fewest sessions, then fewest cycles) that meets a target
//    DR. The group counts searched are {4, 8, 16, 32, 64} up to the chain
//    length (2 on a chain shorter than 4). This is what a test engineer
//    would run once per product.
#pragma once

#include "diagnosis/cost_model.hpp"
#include "diagnosis/experiment_driver.hpp"

namespace scandiag {

/// Power-of-two group count scaled to the selection-axis length.
std::size_t recommendGroupCount(std::size_t chainLength);

struct PlanRequest {
  double targetDr = 0.5;
  std::size_t maxPartitions = 16;
  SchemeKind scheme = SchemeKind::TwoStep;
  std::size_t numPatterns = 128;
};

struct PlanResult {
  bool feasible = false;
  DiagnosisConfig config;   // valid iff feasible
  double achievedDr = 0.0;  // at the chosen budget
  DiagnosisCost cost;       // sessions / cycles of the chosen plan
};

/// Calibrates against `sample` (fault responses from a representative fault
/// sample) and returns the cheapest plan meeting the target, or
/// feasible=false if no candidate configuration reaches it.
PlanResult planDiagnosis(const ScanTopology& topology,
                         const std::vector<FaultResponse>& sample,
                         const PlanRequest& request);

}  // namespace scandiag

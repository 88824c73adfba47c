#include "core/experiment_config.hpp"

namespace scandiag::presets {

namespace {

DiagnosisConfig base(SchemeKind scheme, std::size_t partitions, std::size_t groups,
                     std::size_t patterns, bool pruning) {
  DiagnosisConfig c;
  c.scheme = scheme;
  c.numPartitions = partitions;
  c.groupsPerPartition = groups;
  c.numPatterns = patterns;
  c.pruning = pruning;
  return c;
}

}  // namespace

WorkloadConfig table1Workload() {
  WorkloadConfig w;
  w.numPatterns = 200;
  w.numFaults = 500;
  return w;
}

DiagnosisConfig table1(SchemeKind scheme, std::size_t numPartitions) {
  return base(scheme, numPartitions, /*groups=*/4, /*patterns=*/200, /*pruning=*/false);
}

WorkloadConfig table2Workload() {
  WorkloadConfig w;
  w.numPatterns = 128;
  w.numFaults = 500;
  return w;
}

DiagnosisConfig table2(SchemeKind scheme, bool pruning) {
  return base(scheme, /*partitions=*/8, /*groups=*/16, /*patterns=*/128, pruning);
}

WorkloadConfig socWorkload() { return table2Workload(); }

DiagnosisConfig soc1Config(SchemeKind scheme, bool pruning) {
  return base(scheme, /*partitions=*/8, /*groups=*/32, /*patterns=*/128, pruning);
}

DiagnosisConfig d695Config(SchemeKind scheme, bool pruning) {
  return base(scheme, /*partitions=*/8, /*groups=*/8, /*patterns=*/128, pruning);
}

DiagnosisConfig fig5Config(SchemeKind scheme, std::size_t maxPartitions) {
  return base(scheme, maxPartitions, /*groups=*/32, /*patterns=*/128, /*pruning=*/false);
}

}  // namespace scandiag::presets

#include "soc/sharded_sweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "bist/prpg.hpp"
#include "common/assert.hpp"
#include "common/errors.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"
#include "soc/core_class.hpp"
#include "soc/meta_scan_builder.hpp"

namespace scandiag {

SocShardSpec parseShardSpec(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("bad shard spec '" + text + "': expected i/N (0-based)");
  }
  const std::string what = "shard spec '" + text + "'";
  SocShardSpec spec;
  spec.index = static_cast<std::uint32_t>(
      parseUnsigned(text.substr(0, slash), what + " index", UINT32_MAX));
  spec.count = static_cast<std::uint32_t>(
      parseUnsigned(text.substr(slash + 1), what + " count", UINT32_MAX));
  if (spec.index >= spec.count) {
    throw std::invalid_argument("bad shard spec '" + text + "': need index < count");
  }
  return spec;
}

std::uint64_t socClassSweepId(const DiagnosisConfig& config, std::uint64_t classHash,
                              std::size_t classOrdinal) {
  std::uint64_t d = setupDigestPiece("class", classHash, sweepIdFor(config));
  return setupDigestPiece("class_ordinal", classOrdinal, d);
}

SocSweepResult runSocClassSweep(const Soc& soc, const WorkloadConfig& workload,
                                const DiagnosisConfig& config, const SocSweepOptions& options,
                                const RunControl& control, SweepCheckpoint* checkpoint,
                                MemoryRecordSink* collector) {
  SCANDIAG_REQUIRE(options.shard.count >= 1 && options.shard.index < options.shard.count,
                   "invalid shard spec");

  // Class layout. With dedup off every instance is its own class (one
  // core_class_miss each — artifacts built from scratch, no sharing).
  struct ClassPlan {
    std::size_t representative;
    std::uint64_t hash;
    std::vector<std::size_t> instances;
  };
  std::vector<ClassPlan> plans;
  if (options.dedupClasses) {
    const CoreClassIndex index(soc);
    plans.reserve(index.classCount());
    for (std::size_t c = 0; c < index.classCount(); ++c) {
      plans.push_back(ClassPlan{index.representative(c), index.classHash(c),
                                index.instancesOf(c)});
    }
  } else {
    plans.reserve(soc.coreCount());
    for (std::size_t k = 0; k < soc.coreCount(); ++k) {
      obs::count(obs::Counter::CoreClassMisses);
      plans.push_back(
          ClassPlan{k, structuralNetlistHash(*soc.core(k).netlist), {k}});
    }
  }

  if (checkpoint) {
    ShardMetaRecord meta;
    meta.shardIndex = options.shard.index;
    meta.shardCount = options.shard.count;
    meta.baseDigest = options.baseDigest;
    meta.socSpec = options.socSpec;
    checkpoint->appendAux(kShardMetaRecordType, encodeShardMetaRecord(meta));
  }

  TeeRecordSink tee(checkpoint, collector);
  FaultRecordSink* sink = nullptr;
  if (checkpoint || collector) sink = &tee;

  const std::size_t tamWidth = soc.topology().numChains();
  SocSweepResult result;
  result.coreCount = soc.coreCount();
  result.classCount = plans.size();
  result.totalCells = soc.totalCells();
  result.classes.reserve(plans.size());
  result.manifests.reserve(plans.size());

  for (std::size_t c = 0; c < plans.size(); ++c) {
    control.throwIfStopped();
    const ClassPlan& plan = plans[c];
    const CoreInstance& rep = soc.core(plan.representative);

    // Diagnosis runs on the class's core-local topology — identical for
    // every sibling, so partitions, group tables, and verdicts transfer.
    // Built first, so a schedule the scheme cannot build on these chains is
    // refused before the class is simulated.
    const ScanTopology topology = coreLocalTopology(rep.numCells(), tamWidth);
    const DiagnosisPipeline pipeline(topology, config);

    // Class-keyed seeds: every instance of the class — in any SOC — gets the
    // same patterns and fault sample, which is what makes one evaluation
    // transferable to all siblings.
    WorkloadConfig local = workload;
    local.prpg.seed = workload.prpg.seed ^ fnv1a64(plan.hash, 0x9e3779b97f4a7c15ULL);
    local.faultSeed = workload.faultSeed ^ fnv1a64(plan.hash, 0xc2b2ae3d27d4eb4fULL);

    const PatternSet patterns = generatePatterns(*rep.netlist, local.numPatterns, local.prpg);
    const FaultSimulator sim(*rep.netlist, patterns);
    const FaultList universe = FaultList::enumerateCollapsed(*rep.netlist);
    const std::vector<FaultSite> candidates =
        universe.sample(std::min(universe.size(), local.numFaults * 4), local.faultSeed);
    const std::vector<FaultResponse> responses =
        sim.collectDetected(candidates, local.numFaults);

    const std::uint64_t sweepId = socClassSweepId(config, plan.hash, c);
    SweepManifestRecord manifest;
    manifest.sweepId = sweepId;
    manifest.classHash = plan.hash;
    manifest.classOrdinal = static_cast<std::uint32_t>(c);
    manifest.responseCount = static_cast<std::uint32_t>(responses.size());
    manifest.instanceCount = static_cast<std::uint32_t>(plan.instances.size());
    manifest.className = rep.name;
    if (checkpoint) {
      checkpoint->appendAux(kSweepManifestRecordType, encodeSweepManifestRecord(manifest));
    }

    // Shard i owns the contiguous fault range [i*R/N, (i+1)*R/N). The split
    // is over the (deterministic, shard-invariant) response count, so the N
    // ranges tile [0, R) exactly.
    const std::size_t r = responses.size();
    const std::size_t lo = r * options.shard.index / options.shard.count;
    const std::size_t hi = r * (options.shard.index + 1) / options.shard.count;

    SocClassRow row;
    row.classOrdinal = c;
    row.className = rep.name;
    row.classHash = plan.hash;
    row.instanceCount = plan.instances.size();
    row.responseCount = r;
    row.report = evaluateWithCheckpointRange(pipeline, responses, sink, sweepId, lo, hi, control);
    result.classes.push_back(std::move(row));
    result.manifests.push_back(std::move(manifest));
  }
  return result;
}

}  // namespace scandiag

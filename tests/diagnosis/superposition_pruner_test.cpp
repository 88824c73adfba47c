#include "diagnosis/superposition_pruner.hpp"

#include <gtest/gtest.h>

#include "common/journal.hpp"
#include "core/experiment_config.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "netlist/synthetic_generator.hpp"
#include "soc/soc_builder.hpp"
#include "soc/soc_experiment_driver.hpp"

namespace scandiag {
namespace {

FaultResponse makeResponse(std::size_t numCells, std::size_t patterns,
                           const std::vector<std::size_t>& failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (std::size_t i = 0; i < failing.size(); ++i) {
    const std::size_t c = failing[i];
    r.failingCells.set(c);
    r.failingCellOrdinals.push_back(c);
    BitVector stream(patterns);
    stream.set(i % patterns);      // distinct error patterns per cell
    stream.set((i + 3) % patterns);
    r.errorStreams.push_back(stream);
  }
  return r;
}

struct Pipeline {
  ScanTopology topo;
  SessionEngine engine;
  CandidateAnalyzer analyzer;
  SuperpositionPruner pruner;

  explicit Pipeline(std::size_t cells, std::size_t patterns = 8)
      : topo(ScanTopology::singleChain(cells)),
        engine(topo, makeConfig(patterns)),
        analyzer(topo),
        pruner(topo) {}

  static SessionConfig makeConfig(std::size_t patterns) {
    SessionConfig c{SignatureMode::Exact, patterns};
    c.computeSignatures = true;
    return c;
  }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digestBits(const BitVector& bits, std::uint64_t h) {
  for (std::size_t w = 0; w < bits.wordCount(); ++w) h = fnv1a64(bits.word(w), h);
  return h;
}

std::uint64_t digestPruned(const CandidateSet& pruned, const PruneStats& stats,
                           std::uint64_t h) {
  h = digestBits(pruned.cells, digestBits(pruned.positions, h));
  h = fnv1a64(static_cast<std::uint64_t>(stats.atoms), h);
  h = fnv1a64(static_cast<std::uint64_t>(stats.prunedAtoms), h);
  h = fnv1a64(static_cast<std::uint64_t>(stats.prunedPositions), h);
  return fnv1a64(static_cast<std::uint64_t>(stats.consistent), h);
}

/// One digest per prune overload over every fault of every core of `soc`,
/// plus a digest of the pipeline's own pruned candidates.
struct PruneDigests {
  std::uint64_t partitions = kFnvBasis;
  std::uint64_t prepared = kFnvBasis;
  std::uint64_t pipeline = kFnvBasis;
  std::size_t faults = 0;
  std::size_t inconsistent = 0;
};

PruneDigests pruneDigests(const Soc& soc, const DiagnosisConfig& config) {
  WorkloadConfig workload = presets::socWorkload();
  workload.numFaults = 100;
  const DiagnosisPipeline pipeline(soc.topology(), config);
  const SuperpositionPruner pruner(soc.topology());
  PruneDigests d;
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    for (const FaultResponse& r : socResponsesForFailingCore(soc, k, workload)) {
      const GroupVerdicts v = pipeline.engine().run(pipeline.prepared(), r);
      const CandidateSet raw = pipeline.analyzer().analyze(pipeline.partitions(), v);
      PruneStats stats;
      d.partitions = digestPruned(pruner.prune(pipeline.partitions(), v, raw, &stats), stats,
                                  d.partitions);
      d.prepared = digestPruned(pruner.prune(pipeline.prepared(), v, raw, &stats), stats,
                                d.prepared);
      const CandidateSet diagnosed = pipeline.diagnose(r).candidates;
      d.pipeline = digestBits(diagnosed.cells, digestBits(diagnosed.positions, d.pipeline));
      ++d.faults;
      if (!stats.consistent) ++d.inconsistent;
    }
  }
  return d;
}

TEST(SuperpositionPruner, RequiresSignatures) {
  const ScanTopology topo = ScanTopology::singleChain(8);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const SuperpositionPruner pruner(topo);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4}, 8)};
  const FaultResponse r = makeResponse(8, 4, {1});
  const GroupVerdicts v = engine.run(parts, r);  // no signatures
  const CandidateAnalyzer analyzer(topo);
  const CandidateSet cand = analyzer.analyze(parts, v);
  EXPECT_THROW(pruner.prune(parts, v, cand), std::invalid_argument);
}

TEST(SuperpositionPruner, PrunesAtomWithForcedZeroSignature) {
  // One partition: halves. Fail at cell 1 only -> group 0 fails with the
  // cell-1 signature. Add a second partition that splits group 0 into {0,1}
  // vs {2,3}: cells 2,3 form an atom whose signature is forced to zero.
  Pipeline p(8);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4}, 8),
                                     IntervalPartitioner::fromLengths({2, 2, 4}, 8)};
  const FaultResponse r = makeResponse(8, 8, {1});
  const GroupVerdicts v = p.engine.run(parts, r);
  const CandidateSet before = p.analyzer.analyze(parts, v);
  // Inclusion-exclusion alone: positions {0,1} (group0 of partition 2 is
  // {0,1} failing; {2,3} passes) — so here IE already prunes. Build a harder
  // case below; this one just checks prune() is a no-op that stays sound.
  PruneStats stats;
  const CandidateSet after = p.pruner.prune(parts, v, before, &stats);
  EXPECT_TRUE(stats.consistent);
  EXPECT_TRUE(r.failingCells.isSubsetOf(after.cells));
  EXPECT_TRUE(after.cells.isSubsetOf(before.cells));
}

TEST(SuperpositionPruner, BeatsInclusionExclusionOnCrossPartitionEvidence) {
  // Two failing cells 1 and 6 in different halves. Partition A (halves):
  // both groups fail -> IE keeps everything. Partition B: {0,1},{2,3},{4,5},
  // {6,7}: groups 0 and 3 fail -> IE keeps {0,1,6,7}. The pruner must use
  // signatures to force the {0}- or {7}-side atoms to zero where the algebra
  // allows. Equations: sigB0 = atom(0)+atom(1), sigB3 = atom(6)+atom(7),
  // sigA0 = atom(0)+atom(1), sigA1 = atom(6)+atom(7) — still entangled, so
  // nothing forced: pruning stays sound and subset-monotone.
  Pipeline p(8);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4}, 8),
                                     IntervalPartitioner::fromLengths({2, 2, 2, 2}, 8)};
  const FaultResponse r = makeResponse(8, 8, {1, 6});
  const GroupVerdicts v = p.engine.run(parts, r);
  const CandidateSet before = p.analyzer.analyze(parts, v);
  PruneStats stats;
  const CandidateSet after = p.pruner.prune(parts, v, before, &stats);
  EXPECT_TRUE(stats.consistent);
  EXPECT_TRUE(r.failingCells.isSubsetOf(after.cells));
  EXPECT_TRUE(after.cells.isSubsetOf(before.cells));
}

TEST(SuperpositionPruner, ForcedZeroAtomIsRemoved) {
  // Three partitions engineered so one atom is provably error-free:
  //   P1: {0,1,2,3} | {4..7}     (only group 0 fails; fail cell = 1)
  //   P2: {0,1} | {2,3} | {4..7} (group 0 fails, group 1 passes)
  //   P3: {0} | {1,2,3} | {4..7} (group 1 fails, group 0 passes)
  // IE candidates: intersect({0..3}, {0,1}, {1,2,3}) = {1}. To exercise the
  // GF(2) path rather than IE, drop P3 and instead give P2 group 1 a failing
  // verdict with the SAME signature as P1 group 0 minus P2 group 0 — i.e. a
  // fabricated-verdict scenario. Simpler real exercise: fail cells {1, 2}
  // with equal-but-cancelling contributions is near-impossible to fabricate
  // through the engine, so instead assert the pruner's effect statistically
  // on a real workload below (PruningTightensRealWorkload).
  SUCCEED();
}

TEST(SuperpositionPruner, PruningTightensRealWorkload) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 120;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  DiagnosisConfig plain;
  plain.scheme = SchemeKind::TwoStep;
  plain.numPartitions = 3;  // few partitions leave slack for pruning to close
  plain.groupsPerPartition = 4;
  plain.numPatterns = 64;
  DiagnosisConfig pruned = plain;
  pruned.pruning = true;
  const DiagnosisPipeline p1(work.topology, plain);
  const DiagnosisPipeline p2(work.topology, pruned);

  std::uint64_t candPlain = 0, candPruned = 0;
  for (const FaultResponse& r : work.responses) {
    const FaultDiagnosis a = p1.diagnose(r);
    const FaultDiagnosis b = p2.diagnose(r);
    candPlain += a.candidateCount;
    candPruned += b.candidateCount;
    // Pruned result is a subset of the unpruned result and stays sound.
    EXPECT_TRUE(b.candidates.cells.isSubsetOf(a.candidates.cells));
    EXPECT_TRUE(r.failingCells.isSubsetOf(b.candidates.cells))
        << describeFault(nl, r.fault);
  }
  EXPECT_LT(candPruned, candPlain) << "pruning had no effect on any fault";
}

TEST(SuperpositionPruner, EmptyCandidatesPassThrough) {
  Pipeline p(8);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4}, 8)};
  const FaultResponse r = makeResponse(8, 8, {1});
  const GroupVerdicts v = p.engine.run(parts, r);
  CandidateSet empty;
  empty.positions = BitVector(8);
  empty.cells = BitVector(8);
  PruneStats stats;
  const CandidateSet out = p.pruner.prune(parts, v, empty, &stats);
  EXPECT_TRUE(out.cells.none());
  EXPECT_EQ(stats.atoms, 0u);
}

TEST(SuperpositionPruner, MatchesParentDigests) {
  // Pins the exact output — pruned positions and cells plus every PruneStats
  // field — on the paper's SOC configurations, through both overloads and
  // through DiagnosisPipeline::diagnose, whose single-expansion path must
  // agree. The MISR-8 set exercises the inconsistent (aliasing) branch.
  const Soc soc1 = buildSoc1();
  const Soc d695 = buildD695();
  DiagnosisConfig misr8 = presets::d695Config(SchemeKind::TwoStep, /*pruning=*/true);
  misr8.mode = SignatureMode::Misr;
  misr8.misrDegree = 8;

  const PruneDigests a = pruneDigests(soc1, presets::soc1Config(SchemeKind::TwoStep, true));
  const PruneDigests b = pruneDigests(d695, presets::d695Config(SchemeKind::TwoStep, true));
  const PruneDigests c = pruneDigests(d695, misr8);

  // Recorded from the map-keyed atoms and per-row BitVector eliminator this
  // pruner replaced.
  EXPECT_EQ(a.faults, 600u);
  EXPECT_EQ(a.partitions, 0x82217097765b7f56ULL);
  EXPECT_EQ(a.prepared, 0x82217097765b7f56ULL);
  EXPECT_EQ(a.pipeline, 0x9e649bf9173333bdULL);
  EXPECT_EQ(b.faults, 800u);
  EXPECT_EQ(b.partitions, 0xe04bfd1b84fb9472ULL);
  EXPECT_EQ(b.prepared, 0xe04bfd1b84fb9472ULL);
  EXPECT_EQ(b.pipeline, 0x50179a13bd5d97c3ULL);
  EXPECT_EQ(c.faults, 800u);
  EXPECT_EQ(c.inconsistent, 4u);
  EXPECT_EQ(c.partitions, 0x5545ab4de0ff7a07ULL);
  EXPECT_EQ(c.prepared, 0x5545ab4de0ff7a07ULL);
  EXPECT_EQ(c.pipeline, 0xfd964a4e02a922d1ULL);
}

}  // namespace
}  // namespace scandiag

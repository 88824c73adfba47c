#include "diagnosis/session_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "bist/primitive_polys.hpp"
#include "common/journal.hpp"
#include "common/rng.hpp"
#include "core/experiment_config.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "soc/soc_builder.hpp"
#include "soc/soc_experiment_driver.hpp"

namespace scandiag {
namespace {

/// Hand-built response: failing cells at the given cell ids, each erring on
/// pattern `t = cell % patterns` (arbitrary but deterministic).
FaultResponse makeResponse(std::size_t numCells, std::size_t patterns,
                           const std::vector<std::size_t>& failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (std::size_t c : failing) {
    r.failingCells.set(c);
    r.failingCellOrdinals.push_back(c);
    BitVector stream(patterns);
    stream.set(c % patterns);
    r.errorStreams.push_back(stream);
  }
  return r;
}

TEST(SessionEngine, ExactVerdictsMatchGroupMembership) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  // Partition: [0..3], [4..7], [8..11].
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12)};
  const FaultResponse r = makeResponse(12, 8, {1, 9});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].test(0));
  EXPECT_FALSE(v.failing[0].test(1));
  EXPECT_TRUE(v.failing[0].test(2));
  EXPECT_FALSE(v.hasSignatures);
}

TEST(SessionEngine, NoFailingCellsMeansAllGroupsPass) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({6, 6}, 12)};
  const FaultResponse r = makeResponse(12, 8, {});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].none());
}

TEST(SessionEngine, MultiChainVerdictsUseShiftPositions) {
  // Two chains of 6; failing cell 7 sits on chain 1 at position 1, so the
  // group containing position 1 fails even though cell 1 (chain 0) is fine.
  const ScanTopology topo = ScanTopology::blockChains(12, 2);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({2, 2, 2}, 6)};
  const FaultResponse r = makeResponse(12, 8, {7});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].test(0));   // positions 0-1
  EXPECT_FALSE(v.failing[0].test(1));
  EXPECT_FALSE(v.failing[0].test(2));
}

TEST(SessionEngine, MisrModeFlagsNonzeroSignatures) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Misr, 8};
  config.misrDegree = 16;
  const SessionEngine engine(topo, config);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12)};
  const FaultResponse r = makeResponse(12, 8, {5});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.hasSignatures);
  EXPECT_EQ(v.signatureDegree, 16u);
  EXPECT_FALSE(v.failing[0].test(0));
  EXPECT_TRUE(v.failing[0].test(1));
  EXPECT_NE(v.errorSig[0][1], 0u);
  EXPECT_EQ(v.errorSig[0][0], 0u);
}

TEST(SessionEngine, GroupSignatureIsXorOfCellSignatures) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Misr, 8};
  const SessionEngine engine(topo, config);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({12}, 12)};

  const FaultResponse both = makeResponse(12, 8, {2, 9});
  const FaultResponse only2 = makeResponse(12, 8, {2});
  const FaultResponse only9 = makeResponse(12, 8, {9});
  const std::uint64_t sBoth = engine.run(parts, both).errorSig[0][0];
  const std::uint64_t s2 = engine.run(parts, only2).errorSig[0][0];
  const std::uint64_t s9 = engine.run(parts, only9).errorSig[0][0];
  EXPECT_EQ(sBoth, s2 ^ s9);
}

TEST(SessionEngine, CellErrorSignatureMatchesFullMisrRun) {
  // End-to-end consistency: engine's per-cell signature equals clocking a
  // real MISR over the cell's masked scan-out stream.
  const std::size_t L = 9, patterns = 5, cell = 4;
  const ScanTopology topo = ScanTopology::singleChain(L);
  SessionConfig config{SignatureMode::Misr, patterns};
  const SessionEngine engine(topo, config);

  BitVector stream(patterns);
  stream.set(0);
  stream.set(3);
  const std::uint64_t viaEngine = engine.cellErrorSignature(cell, stream);

  Misr misr(config.misrDegree, primitiveTapMask(config.misrDegree), 1);
  for (std::size_t t = 0; t < patterns; ++t)
    for (std::size_t p = 0; p < L; ++p)
      misr.clock((p == cell && stream.test(t)) ? 1 : 0);
  EXPECT_EQ(viaEngine, misr.signature());
}

TEST(SessionEngine, ExactModeComputesPruneSignaturesOnRequest) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Exact, 8};
  config.computeSignatures = true;
  const SessionEngine engine(topo, config);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({6, 6}, 12)};
  const GroupVerdicts v = engine.run(parts, makeResponse(12, 8, {3}));
  EXPECT_TRUE(v.hasSignatures);
  EXPECT_EQ(v.signatureDegree, kPruneDegree);
  EXPECT_NE(v.errorSig[0][0], 0u);
}

TEST(SessionEngine, PartitionLengthMismatchRejected) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({5, 5}, 10)};
  EXPECT_THROW(engine.run(parts, makeResponse(12, 8, {3})), std::invalid_argument);
}

/// Seeded response: `failing` distinct cells, each with a random nonzero
/// error stream of about one bit in three.
FaultResponse randomResponse(std::size_t numCells, std::size_t patterns, std::size_t failing,
                             Xoroshiro128& rng) {
  std::vector<std::size_t> cells;
  while (cells.size() < failing) {
    const std::size_t cell = rng.nextBelow(numCells);
    if (std::find(cells.begin(), cells.end(), cell) == cells.end()) cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end());
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (const std::size_t cell : cells) {
    BitVector stream(patterns);
    for (std::size_t t = 0; t < patterns; ++t) {
      if (rng.nextBelow(3) == 0) stream.set(t);
    }
    if (stream.none()) stream.set(rng.nextBelow(patterns));
    r.failingCells.set(cell);
    r.failingCellOrdinals.push_back(cell);
    r.errorStreams.push_back(std::move(stream));
  }
  return r;
}

/// `numCells` cells dealt in a seeded order onto chains of unequal lengths
/// (chain c holds about c + 1 shares), so chain order and cell order differ.
ScanTopology stitchedChains(std::size_t numCells, std::size_t numChains, std::uint64_t seed) {
  std::vector<std::size_t> order(numCells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Xoroshiro128 rng(seed);
  for (std::size_t i = numCells; i > 1; --i) std::swap(order[i - 1], order[rng.nextBelow(i)]);
  const std::size_t shares = numChains * (numChains + 1) / 2;
  std::vector<std::vector<std::size_t>> chains(numChains);
  std::size_t next = 0;
  for (std::size_t c = 0; c < numChains; ++c) {
    const std::size_t len = c + 1 == numChains ? numCells - next : numCells * (c + 1) / shares;
    chains[c].assign(order.begin() + static_cast<std::ptrdiff_t>(next),
                     order.begin() + static_cast<std::ptrdiff_t>(next + len));
    next += len;
  }
  return ScanTopology::fromChains(std::move(chains));
}

/// Independent oracle: the error signature of one session, by clocking a
/// register over the session's masked, compacted unload. Pattern t shifts
/// out position p of every chain at clock t * L + p; only positions of the
/// selected group reach the compactor.
std::uint64_t clockedGroupSignature(const ScanTopology& topo, const SpaceCompactor* compactor,
                                    unsigned degree, std::uint64_t taps, std::size_t patterns,
                                    const std::vector<std::uint64_t>& chainWords,
                                    const BitVector& group) {
  const std::size_t lines = compactor ? compactor->outputLines() : topo.numChains();
  Misr misr(degree, taps, static_cast<unsigned>(lines));
  const std::size_t chainLen = topo.maxChainLength();
  for (std::size_t t = 0; t < patterns; ++t) {
    for (std::size_t p = 0; p < chainLen; ++p) {
      const std::uint64_t word = group.test(p) ? chainWords[t * chainLen + p] : 0;
      misr.clock(compactor ? compactor->apply(word) : word);
    }
  }
  return misr.signature();
}

TEST(SessionEngine, BatchedSignaturesMatchClockedMisr) {
  struct Case {
    const char* name;
    ScanTopology topo;
    SignatureMode mode;
    unsigned degree;             // verdict MISR degree, or kPruneDegree in Exact mode
    std::size_t compactorLines;  // 0 = one MISR input per chain
    std::size_t patterns;
    std::size_t partitions;
    std::size_t groups;
    std::size_t faults;
  };
  const std::vector<Case> cases = {
      {"single/misr8", ScanTopology::singleChain(97), SignatureMode::Misr, 8, 0, 20, 4, 8, 12},
      {"single/misr16", ScanTopology::singleChain(97), SignatureMode::Misr, 16, 0, 65, 3, 4, 12},
      {"block/misr31", ScanTopology::blockChains(203, 6), SignatureMode::Misr, 31, 0, 70, 4, 8,
       12},
      {"block/misr16/compactor", ScanTopology::blockChains(203, 6), SignatureMode::Misr, 16, 4,
       64, 4, 8, 12},
      {"stitched/misr8/compactor", stitchedChains(150, 9, 3), SignatureMode::Misr, 8, 5, 63, 4,
       4, 12},
      {"block/exact32", ScanTopology::blockChains(203, 6), SignatureMode::Exact, kPruneDegree, 0,
       33, 4, 8, 12},
      {"stitched/exact32/compactor", stitchedChains(150, 9, 5), SignatureMode::Exact,
       kPruneDegree, 3, 129, 4, 4, 12},
      {"stitched/exact32", stitchedChains(180, 5, 7), SignatureMode::Exact, kPruneDegree, 0, 2,
       3, 8, 12},
      // 40,000 cells x 128 patterns: no signature table may grow with that
      // product, so a topology this size takes the same path as the rest.
      {"block-40k/exact32", ScanTopology::blockChains(40000, 16), SignatureMode::Exact,
       kPruneDegree, 0, 128, 2, 4, 2},
  };
  std::uint64_t seed = 17;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::size_t chains = c.topo.numChains();
    std::optional<SpaceCompactor> compactor;
    if (c.compactorLines) compactor = SpaceCompactor::moduloFanin(chains, c.compactorLines);
    SessionConfig config{c.mode, c.patterns};
    if (c.mode == SignatureMode::Misr) {
      config.misrDegree = c.degree;
    } else {
      config.computeSignatures = true;
    }
    config.compactor = compactor ? &*compactor : nullptr;
    const SessionEngine engine(c.topo, config);
    const std::uint64_t taps = primitiveTapMask(c.degree);

    DiagnosisConfig schedule;
    schedule.scheme = SchemeKind::TwoStep;
    schedule.numPartitions = c.partitions;
    schedule.groupsPerPartition = c.groups;
    const PreparedPartitionSet prepared(buildPartitions(schedule, c.topo.maxChainLength()));

    Xoroshiro128 rng(seed++);
    const std::size_t chainLen = c.topo.maxChainLength();
    for (std::size_t f = 0; f < c.faults; ++f) {
      const FaultResponse r =
          randomResponse(c.topo.numCells(), c.patterns, 1 + rng.nextBelow(9), rng);
      // Chain words of the unload: bit `chain` of word (t, p) is the error
      // of the cell at (chain, p) in pattern t.
      std::vector<std::uint64_t> chainWords(c.patterns * chainLen, 0);
      for (std::size_t i = 0; i < r.failingCellOrdinals.size(); ++i) {
        const ScanTopology::CellLoc loc = c.topo.location(r.failingCellOrdinals[i]);
        r.errorStreams[i].forEachSet([&](std::size_t t) {
          chainWords[t * chainLen + loc.position] ^= std::uint64_t{1} << loc.chain;
        });
      }
      const GroupVerdicts v = engine.run(prepared, r);
      ASSERT_TRUE(v.hasSignatures);
      ASSERT_EQ(v.signatureDegree, c.degree);
      for (std::size_t p = 0; p < prepared.size(); ++p) {
        const Partition& partition = prepared.partition(p);
        for (std::size_t g = 0; g < partition.groupCount(); ++g) {
          const std::uint64_t expected =
              clockedGroupSignature(c.topo, config.compactor, c.degree, taps, c.patterns,
                                    chainWords, partition.groups[g]);
          ASSERT_EQ(v.errorSig[p][g], expected) << "fault " << f << " partition " << p
                                                << " group " << g;
          if (c.mode == SignatureMode::Misr) {
            ASSERT_EQ(v.failing[p].test(g), expected != 0);
          }
        }
      }
    }
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digestSignatures(const GroupVerdicts& v, std::uint64_t h) {
  for (const std::vector<std::uint64_t>& row : v.errorSig) {
    for (const std::uint64_t sig : row) h = fnv1a64(sig, h);
  }
  return h;
}

TEST(SessionEngine, SignaturesMatchParentDigests) {
  // Pins every group error signature of engine.run on the paper's SOC
  // configurations with pruning, plus a MISR-16 set through a space
  // compactor on unequal stitched chains. Recorded from the scorer that
  // gathered each cell's signature from a cells x patterns weight table.
  WorkloadConfig workload = presets::socWorkload();
  workload.numFaults = 400;
  const auto socDigest = [&](const Soc& soc, const DiagnosisConfig& config,
                             std::size_t* faults) {
    const DiagnosisPipeline pipeline(soc.topology(), config);
    std::uint64_t h = kFnvBasis;
    for (std::size_t k = 0; k < soc.coreCount(); ++k) {
      for (const FaultResponse& r : socResponsesForFailingCore(soc, k, workload)) {
        h = digestSignatures(pipeline.engine().run(pipeline.prepared(), r), h);
        ++*faults;
      }
    }
    return h;
  };
  const Soc soc1 = buildSoc1();
  const Soc d695 = buildD695();
  std::size_t soc1Faults = 0, d695Faults = 0;
  const std::uint64_t soc1Digest =
      socDigest(soc1, presets::soc1Config(SchemeKind::TwoStep, true), &soc1Faults);
  const std::uint64_t d695Digest =
      socDigest(d695, presets::d695Config(SchemeKind::TwoStep, true), &d695Faults);

  // MISR-16 through a 12 -> 5 compactor on d695's cells restitched onto 12
  // unequal chains, over core 3's responses.
  const ScanTopology stitched = stitchedChains(d695.totalCells(), 12, 695);
  const SpaceCompactor compactor = SpaceCompactor::moduloFanin(12, 5);
  SessionConfig misr16{SignatureMode::Misr, workload.numPatterns};
  misr16.misrDegree = 16;
  misr16.compactor = &compactor;
  const SessionEngine engine(stitched, misr16);
  const PreparedPartitionSet prepared(buildPartitions(
      presets::d695Config(SchemeKind::TwoStep, false), stitched.maxChainLength()));
  std::uint64_t misrDigest = kFnvBasis;
  std::size_t misrFaults = 0;
  for (const FaultResponse& r : socResponsesForFailingCore(d695, 3, workload)) {
    misrDigest = digestSignatures(engine.run(prepared, r), misrDigest);
    ++misrFaults;
  }

  EXPECT_EQ(soc1Faults, 2400u);
  EXPECT_EQ(soc1Digest, 0xa47601d244370309ULL);
  EXPECT_EQ(d695Faults, 3200u);
  EXPECT_EQ(d695Digest, 0x19674aeb95b159e5ULL);
  EXPECT_EQ(misrFaults, 400u);
  EXPECT_EQ(misrDigest, 0x6dd4c41c9a2d3cf1ULL);
}

}  // namespace
}  // namespace scandiag

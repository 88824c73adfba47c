// Property harness for the GF(2) linearity the batched MISR scorer rests on
// (docs/ARCHITECTURE.md §11). Two properties, each swept over seeded random
// cases across primitive polynomials, input widths, and chain lengths:
//
//   1. Superposition: sig(a ^ b) == sig(a) ^ sig(b) for the clocked register.
//   2. Per-cell contributions reconstruct the full session: XOR-ing each
//      cell's model-computed error signature equals one clocked MISR run over
//      the combined multi-chain error stream.
//
// These are the *algebraic* preconditions of the batched SessionEngine::run();
// the end-to-end scorer parity lives in tests/diagnosis/batched_parity_test.cpp.

#include "bist/misr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bist/primitive_polys.hpp"
#include "bist/scan_topology.hpp"
#include "common/rng.hpp"

namespace scandiag {
namespace {

TEST(MisrLinearity, SuperpositionAcrossPolysWidthsAndLengths) {
  // sig(a ^ b) == sig(a) ^ sig(b), the identity that lets the batched scorer
  // build any group's signature from per-cell pieces. 3 degrees x 5 seeds x
  // 3 stream lengths x widths = 135+ independent random cases.
  int cases = 0;
  for (unsigned degree : {4u, 16u, 31u}) {
    const std::uint64_t taps = primitiveTapMask(degree);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (std::size_t length : {7u, 64u, 301u}) {
        const unsigned maxWidth = degree < 8 ? degree : 8;
        for (unsigned width = 1; width <= maxWidth; width += 3) {
          Xoroshiro128 rng(seed * 1000 + degree * 10 + width);
          std::vector<std::uint64_t> a(length), b(length);
          for (auto& x : a) x = rng.nextBelow(std::uint64_t{1} << width);
          for (auto& x : b) x = rng.nextBelow(std::uint64_t{1} << width);
          Misr ma(degree, taps, width), mb(degree, taps, width), mab(degree, taps, width);
          for (std::size_t i = 0; i < length; ++i) {
            ma.clock(a[i]);
            mb.clock(b[i]);
            mab.clock(a[i] ^ b[i]);
          }
          ASSERT_EQ(mab.signature(), ma.signature() ^ mb.signature())
              << "degree " << degree << " width " << width << " length " << length
              << " seed " << seed;
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 100);
}

TEST(MisrLinearity, CellContributionsReconstructFullSessionSignature) {
  // Random multi-chain sessions: per-cell error streams, one clocked MISR run
  // over the combined stream vs the XOR of each cell's model signature. This
  // is exactly the decomposition the batched SessionEngine::run() exploits —
  // if it holds for the whole topology it holds for every subset (every
  // session of every group).
  int cases = 0;
  for (unsigned degree : {8u, 16u, 24u}) {
    const std::uint64_t taps = primitiveTapMask(degree);
    for (std::uint64_t seed = 11; seed <= 110; seed += 11) {  // 10 seeds
      Xoroshiro128 rng(seed * 31 + degree);
      const std::size_t numChains = 1 + rng.nextBelow(degree);  // width <= degree
      const std::size_t numCells = numChains * (2 + rng.nextBelow(9));
      const std::size_t patterns = 1 + rng.nextBelow(24);
      const ScanTopology topo = ScanTopology::blockChains(numCells, numChains);
      const std::size_t chainLen = topo.maxChainLength();
      std::vector<std::uint64_t> chainLines(topo.numChains());
      for (std::size_t c = 0; c < chainLines.size(); ++c) chainLines[c] = std::uint64_t{1} << c;
      const MisrLinearModel model(degree, taps, chainLen, patterns, chainLines);

      // Sparse random error streams, one per cell (most cells clean).
      std::vector<BitVector> errors(numCells, BitVector(patterns));
      for (std::size_t cell = 0; cell < numCells; ++cell) {
        for (std::size_t t = 0; t < patterns; ++t) {
          if (rng.nextBelow(4) == 0) errors[cell].set(t);
        }
      }

      // Clocked reference: pattern-major unload, position p of every chain
      // enters the register together at cycle t*chainLen + p.
      Misr m(degree, taps, static_cast<unsigned>(topo.numChains()));
      for (std::size_t t = 0; t < patterns; ++t) {
        for (std::size_t p = 0; p < chainLen; ++p) {
          std::uint64_t inputs = 0;
          for (std::size_t c = 0; c < topo.numChains(); ++c) {
            if (p >= topo.chainLength(c)) continue;
            const std::size_t cell = topo.chain(c)[p];
            if (errors[cell].test(t)) inputs |= std::uint64_t{1} << c;
          }
          m.clock(inputs);
        }
      }

      // Model: XOR of per-cell contributions.
      std::uint64_t sum = 0;
      for (std::size_t cell = 0; cell < numCells; ++cell) {
        const ScanTopology::CellLoc loc = topo.location(cell);
        sum ^= model.cellSignature(loc.chain, loc.position, errors[cell]);
      }
      ASSERT_EQ(sum, m.signature())
          << "degree " << degree << " seed " << seed << " chains " << numChains
          << " cells " << numCells << " patterns " << patterns;
      ++cases;
    }
  }
  EXPECT_GE(cases, 30);
}

TEST(MisrLinearity, UnionOfCellDisjointFaultsIsXorOfComponentSignatures) {
  // The defect-zoo guarantee at the compactor level: a k-fault union whose
  // components fail *disjoint* cell sets has OR == XOR on the combined error
  // stream, so sig(union) == XOR of the per-fault signatures. Two verdict
  // consequences, checked per random case:
  //   * no phantom fail: sig(union) != 0 implies some component sig != 0;
  //   * a union can only read PASS despite failing components by aliasing
  //     (the component signatures XOR to zero) — counted, and required to be
  //     rare at degree >= 16 — never by any other mechanism.
  int cases = 0, aliased = 0, detectedUnions = 0;
  for (unsigned degree : {8u, 16u, 31u}) {
    const std::uint64_t taps = primitiveTapMask(degree);
    for (std::uint64_t seed = 7; seed <= 70; seed += 7) {  // 10 seeds
      Xoroshiro128 rng(seed * 131 + degree);
      const std::size_t numChains = 1 + rng.nextBelow(degree < 8 ? degree : 8);
      const std::size_t numCells = numChains * (2 + rng.nextBelow(7));
      const std::size_t patterns = 1 + rng.nextBelow(16);
      const std::size_t k = 2 + rng.nextBelow(3);  // 2..4 simultaneous faults
      const ScanTopology topo = ScanTopology::blockChains(numCells, numChains);
      const std::size_t chainLen = topo.maxChainLength();

      // Partition the cells among the k faults, then draw sparse streams.
      std::vector<std::size_t> owner(numCells);
      for (std::size_t cell = 0; cell < numCells; ++cell) owner[cell] = rng.nextBelow(k);
      std::vector<BitVector> errors(numCells, BitVector(patterns));
      for (std::size_t cell = 0; cell < numCells; ++cell) {
        for (std::size_t t = 0; t < patterns; ++t) {
          if (rng.nextBelow(3) == 0) errors[cell].set(t);
        }
      }

      // One clocked run per fault (only its cells drive the register) plus
      // one over the union stream.
      const auto clockedSignature = [&](std::size_t fault) {
        Misr m(degree, taps, static_cast<unsigned>(topo.numChains()));
        for (std::size_t t = 0; t < patterns; ++t) {
          for (std::size_t p = 0; p < chainLen; ++p) {
            std::uint64_t inputs = 0;
            for (std::size_t c = 0; c < topo.numChains(); ++c) {
              if (p >= topo.chainLength(c)) continue;
              const std::size_t cell = topo.chain(c)[p];
              if (fault != k && owner[cell] != fault) continue;
              if (errors[cell].test(t)) inputs |= std::uint64_t{1} << c;
            }
            m.clock(inputs);
          }
        }
        return m.signature();
      };

      std::uint64_t xorOfComponents = 0;
      bool anyComponentDetected = false;
      for (std::size_t fault = 0; fault < k; ++fault) {
        const std::uint64_t sig = clockedSignature(fault);
        xorOfComponents ^= sig;
        anyComponentDetected = anyComponentDetected || sig != 0;
      }
      const std::uint64_t unionSig = clockedSignature(k);  // k = all faults

      ASSERT_EQ(unionSig, xorOfComponents)
          << "degree " << degree << " seed " << seed << " k " << k;
      if (unionSig != 0) {
        ASSERT_TRUE(anyComponentDetected)
            << "phantom union fail: degree " << degree << " seed " << seed;
        ++detectedUnions;
      } else if (anyComponentDetected) {
        ++aliased;  // components cancelled in GF(2) — the only escape hatch
      }
      ++cases;
    }
  }
  EXPECT_GE(cases, 30);
  EXPECT_GT(detectedUnions, 0);
  // Aliasing odds are ~2^-degree per case; across 30 cases at degree >= 8 a
  // handful is conceivable, a majority is a harness bug.
  EXPECT_LT(aliased, cases / 4);
}

TEST(MisrLinearity, EmptyErrorStreamContributesZero) {
  // The additive identity: a clean cell must not perturb any batched sum.
  const MisrLinearModel model(16, primitiveTapMask(16), 4, 10, {1, 2});
  const BitVector empty(10);
  EXPECT_EQ(model.cellSignature(0, 0, empty), 0u);
  EXPECT_EQ(model.cellSignature(1, 3, empty), 0u);
}

}  // namespace
}  // namespace scandiag

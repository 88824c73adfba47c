#include "bist/scan_topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace scandiag {
namespace {

TEST(ScanTopology, SingleChainIdentityLayout) {
  const ScanTopology t = ScanTopology::singleChain(10);
  EXPECT_EQ(t.numCells(), 10u);
  EXPECT_EQ(t.numChains(), 1u);
  EXPECT_EQ(t.maxChainLength(), 10u);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_EQ(t.location(c).chain, 0u);
    EXPECT_EQ(t.location(c).position, c);
  }
}

TEST(ScanTopology, BlockChainsBalancedContiguous) {
  const ScanTopology t = ScanTopology::blockChains(10, 3);
  EXPECT_EQ(t.numChains(), 3u);
  EXPECT_EQ(t.chainLength(0), 4u);
  EXPECT_EQ(t.chainLength(1), 3u);
  EXPECT_EQ(t.chainLength(2), 3u);
  EXPECT_EQ(t.maxChainLength(), 4u);
  // Cells 0..3 on chain 0, 4..6 on chain 1, 7..9 on chain 2.
  EXPECT_EQ(t.location(3).chain, 0u);
  EXPECT_EQ(t.location(4).chain, 1u);
  EXPECT_EQ(t.location(4).position, 0u);
  EXPECT_EQ(t.location(9).chain, 2u);
  EXPECT_EQ(t.location(9).position, 2u);
}

TEST(ScanTopology, FromChainsCustomStitching) {
  const ScanTopology t = ScanTopology::fromChains({{2, 0}, {1, 3, 4}});
  EXPECT_EQ(t.numCells(), 5u);
  EXPECT_EQ(t.location(2).chain, 0u);
  EXPECT_EQ(t.location(2).position, 0u);
  EXPECT_EQ(t.location(0).position, 1u);
  EXPECT_EQ(t.location(4).position, 2u);
}

TEST(ScanTopology, FromChainsValidation) {
  EXPECT_THROW(ScanTopology::fromChains({}), std::invalid_argument);
  EXPECT_THROW(ScanTopology::fromChains({{}}), std::invalid_argument);
  EXPECT_THROW(ScanTopology::fromChains({{0, 0}}), std::invalid_argument);   // repeated
  EXPECT_THROW(ScanTopology::fromChains({{0, 5}}), std::invalid_argument);   // out of range
  EXPECT_THROW(ScanTopology::fromChains({{0}, {0}}), std::invalid_argument); // cross-chain dup
}

TEST(ScanTopology, BlockChainsEdgeCases) {
  EXPECT_THROW(ScanTopology::blockChains(5, 0), std::invalid_argument);
  EXPECT_THROW(ScanTopology::blockChains(3, 4), std::invalid_argument);
  const ScanTopology t = ScanTopology::blockChains(4, 4);
  EXPECT_EQ(t.maxChainLength(), 1u);
}

TEST(ScanTopology, ExpandCollapseSingleChainAreInverse) {
  const ScanTopology t = ScanTopology::singleChain(20);
  BitVector pos(20);
  pos.set(3);
  pos.set(17);
  const BitVector cells = t.expandPositions(pos);
  EXPECT_EQ(cells.toIndices(), (std::vector<std::size_t>{3, 17}));
  EXPECT_EQ(t.collapseCells(cells), pos);
}

TEST(ScanTopology, ExpandCoversAllChainsAtPosition) {
  // 2 chains of 3: position 1 selects cells 1 and 4.
  const ScanTopology t = ScanTopology::blockChains(6, 2);
  BitVector pos(3);
  pos.set(1);
  const BitVector cells = t.expandPositions(pos);
  EXPECT_EQ(cells.toIndices(), (std::vector<std::size_t>{1, 4}));
}

TEST(ScanTopology, CollapseMapsCellToItsPosition) {
  const ScanTopology t = ScanTopology::blockChains(7, 2);  // chains: 4 + 3
  BitVector cells(7);
  cells.set(6);  // chain 1, position 2
  const BitVector pos = t.collapseCells(cells);
  EXPECT_EQ(pos.toIndices(), (std::vector<std::size_t>{2}));
}

TEST(ScanTopology, UnevenChainsPadAtTail) {
  const ScanTopology t = ScanTopology::fromChains({{0, 1, 2}, {3}});
  EXPECT_EQ(t.maxChainLength(), 3u);
  BitVector pos(3);
  pos.set(2);  // only chain 0 has a cell at position 2
  EXPECT_EQ(t.expandPositions(pos).toIndices(), (std::vector<std::size_t>{2}));
}

TEST(ScanTopology, ExpandCollapseMatchDenseReference) {
  // Random stitchings with unequal (sometimes empty) chains: the sparse
  // expansion must equal a per-cell dense loop, and collapsing it must give
  // back the mask restricted to occupied positions.
  Xoroshiro128 rng(0x5CA7'70B0ULL);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t numChains = 1 + rng.nextBelow(6);
    const std::size_t numCells = 1 + rng.nextBelow(200);
    std::vector<std::size_t> cells(numCells);
    std::iota(cells.begin(), cells.end(), std::size_t{0});
    for (std::size_t i = numCells; i > 1; --i) std::swap(cells[i - 1], cells[rng.nextBelow(i)]);
    std::vector<std::vector<std::size_t>> chains(numChains);
    for (const std::size_t cell : cells) chains[rng.nextBelow(numChains)].push_back(cell);
    const ScanTopology t = ScanTopology::fromChains(chains);
    const std::size_t length = t.maxChainLength();
    std::size_t shortest = length;
    for (const auto& chain : chains) shortest = std::min(shortest, chain.size());

    BitVector occupied(length);
    for (std::size_t cell = 0; cell < numCells; ++cell) occupied.set(t.location(cell).position);

    std::vector<BitVector> masks{BitVector(length), BitVector(length), BitVector(length),
                                 BitVector(length, true)};
    // Single bit, past the shortest chain's end whenever the lengths differ.
    masks[1].set(shortest < length ? shortest + rng.nextBelow(length - shortest)
                                   : rng.nextBelow(length));
    const std::uint64_t density = rng.nextBelow(4);
    for (std::size_t pos = 0; pos < length; ++pos) {
      if (rng.nextBelow(4) <= density) masks[2].set(pos);
    }
    for (const BitVector& mask : masks) {
      BitVector dense(numCells);
      for (std::size_t cell = 0; cell < numCells; ++cell) {
        if (mask.test(t.location(cell).position)) dense.set(cell);
      }
      const BitVector expanded = t.expandPositions(mask);
      ASSERT_EQ(expanded, dense) << "trial " << trial << " mask " << mask.toString();
      ASSERT_EQ(t.collapseCells(expanded), mask & occupied) << "trial " << trial;
    }
  }
}

TEST(ScanTopology, SizeMismatchesRejected) {
  const ScanTopology t = ScanTopology::singleChain(5);
  EXPECT_THROW(t.expandPositions(BitVector(4)), std::invalid_argument);
  EXPECT_THROW(t.collapseCells(BitVector(6)), std::invalid_argument);
  EXPECT_THROW(t.location(5), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag

#include "bist/scan_topology.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace scandiag {

ScanTopology ScanTopology::singleChain(std::size_t numCells) {
  std::vector<std::size_t> chain(numCells);
  for (std::size_t i = 0; i < numCells; ++i) chain[i] = i;
  return fromChains({std::move(chain)});
}

ScanTopology ScanTopology::blockChains(std::size_t numCells, std::size_t numChains) {
  SCANDIAG_REQUIRE(numChains >= 1, "need at least one chain");
  SCANDIAG_REQUIRE(numCells >= 1, "circuit has no scan cells");
  SCANDIAG_REQUIRE(numChains <= numCells, "more chains than cells");
  std::vector<std::vector<std::size_t>> chains(numChains);
  const std::size_t base = numCells / numChains;
  const std::size_t extra = numCells % numChains;
  std::size_t next = 0;
  for (std::size_t c = 0; c < numChains; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    chains[c].reserve(len);
    for (std::size_t i = 0; i < len; ++i) chains[c].push_back(next++);
  }
  return fromChains(std::move(chains));
}

ScanTopology ScanTopology::fromChains(std::vector<std::vector<std::size_t>> chains) {
  SCANDIAG_REQUIRE(!chains.empty(), "need at least one chain");
  std::size_t total = 0;
  for (const auto& c : chains) total += c.size();
  SCANDIAG_REQUIRE(total > 0, "topology must contain at least one cell");

  ScanTopology t;
  t.chains_ = std::move(chains);
  t.loc_.assign(total, CellLoc{0, 0});
  std::vector<bool> seen(total, false);
  for (std::size_t c = 0; c < t.chains_.size(); ++c) {
    t.maxLen_ = std::max(t.maxLen_, t.chains_[c].size());
    for (std::size_t p = 0; p < t.chains_[c].size(); ++p) {
      const std::size_t cell = t.chains_[c][p];
      SCANDIAG_REQUIRE(cell < total, "cell id out of range in chain stitching");
      SCANDIAG_REQUIRE(!seen[cell], "cell id repeated in chain stitching");
      seen[cell] = true;
      t.loc_[cell] = CellLoc{c, p};
    }
  }
  return t;
}

ScanTopology::CellLoc ScanTopology::location(std::size_t cell) const {
  SCANDIAG_REQUIRE(cell < loc_.size(), "cell id out of range");
  return loc_[cell];
}

BitVector ScanTopology::expandPositions(const BitVector& positions) const {
  SCANDIAG_REQUIRE(positions.size() == maxLen_, "position mask size mismatch");
  // Sparse: cost is (set positions x chains), never numCells() bit tests —
  // a per-fault candidate set is tens of positions on a thousands-long axis.
  BitVector cells(numCells());
  BitVector::Word* out = cells.data();
  positions.forEachSet([&](std::size_t pos) {
    for (const std::vector<std::size_t>& chain : chains_) {
      if (pos >= chain.size()) continue;
      const std::size_t cell = chain[pos];
      out[cell / BitVector::kWordBits] |= BitVector::Word{1} << (cell % BitVector::kWordBits);
    }
  });
  return cells;
}

BitVector ScanTopology::collapseCells(const BitVector& cells) const {
  SCANDIAG_REQUIRE(cells.size() == numCells(), "cell mask size mismatch");
  BitVector positions(maxLen_);
  for (std::size_t cell = cells.findFirst(); cell != BitVector::npos;
       cell = cells.findNext(cell)) {
    positions.set(loc_[cell].position);
  }
  return positions;
}

}  // namespace scandiag
